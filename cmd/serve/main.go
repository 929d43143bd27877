// Command serve is a load generator for the online multi-stream
// serving simulator: it offers N concurrent video streams to a fleet
// of simulated GPU executors and reports throughput, drop rate, queue
// depth and p50/p95/p99 end-to-end latency. The same flags and seed
// always print byte-identical output, at any executor count.
//
// Examples:
//
//	serve -streams 8 -executors 2
//	serve -streams 8 -fps 30 -arrivals poisson -policy drop-oldest -queue-cap 16
//	serve -streams 16 -executors 2 -stale 0.3 -degrade-depth 8 -json
//	serve -preset crowd -streams 3 -fps 4 -arrivals poisson -duration 6 \
//	      -queue-cap 16 -controller baseline -sweep             # adaptive vs static grid
//	serve -streams 8 -controller baseline -control-tick 0.1     # closed-loop shedding
//	serve -system single -refinement resnet50 -streams 8 -executors 2
//	serve -streams 8 -sched fair -batch 4                     # DRR + batched launches
//	serve -streams 4 -sched priority -priorities 2,2,1,0      # per-stream classes
//	serve -streams 8 -sched edf -stale 0.5                    # deadline = arrive+stale
//	serve -streams 6 -stream-fps 60,10,10,10,10,10 -sweep     # policy x batch table
//	serve -streams 4 -trace trace.jsonl                       # per-frame event log (JSONL)
//	serve -streams 16 -executors 4 -step-workers 8            # fan session stepping over 8 cores
//	serve -preset night -streams 8                            # low-light pack: noisier detectors
//	serve -chaos dropout=30,renumber -reconnect resume-with-gap
//	serve -chaos jitter=0.2,skew=0.1,poison=0.05 -poison drop # flaky clients + corrupt frames
//	serve -preset all -sweep                                  # one comparison row per scenario pack
//	serve -shards 4 -gpu-tiers v100,v100,k80,k80              # sharded cluster, mixed GPU tiers
//	serve -shards 2 -migrate-depth 4 -stream-fps 120,15,15,15 # hot stream migrates off its shard
//	serve -arrivals burst -burst-period 4 -burst-duty 0.125 \
//	      -shards 2 -autoscale min=0,max=2 -sweep             # elastic vs static economics table
//	serve -shards 4 -kill 0@5,2@9 -revive 0@12 -failover replay  # deterministic shard failures
//	serve -shards 2 -mtbf 20 -mttr 4 -failover degrade        # seeded stochastic kill/revive process
//	serve -shards 2 -add-shard 10:v100 -migrate-depth 4       # grow the ring online mid-run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
	"repro/internal/serve/control"
	"repro/internal/serve/sched"
	"repro/internal/sim"
	"repro/internal/video"
)

// sweepScheds and sweepBatches span the -sweep comparison grid.
var (
	sweepScheds  = []sched.Kind{sched.FIFO, sched.Fair, sched.Priority, sched.EDF}
	sweepBatches = []int{1, 2, 4, 8}
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")

	system := flag.String("system", "catdet", "system kind: single | cascaded | catdet")
	proposal := flag.String("proposal", "resnet10a", "proposal network (cascaded/catdet)")
	refinement := flag.String("refinement", "resnet50", "refinement network (or the single model)")
	preset := flag.String("preset", "kitti", "scenario pack: "+strings.Join(video.PresetNames(), " | ")+" (or \"all\" with -sweep)")
	streams := flag.Int("streams", 4, "number of concurrent video streams")
	fps := flag.Float64("fps", 0, "per-stream frame rate (0 = preset native)")
	streamFPS := flag.String("stream-fps", "", "comma-separated per-stream rates overriding -fps (heterogeneous load)")
	arrivals := flag.String("arrivals", "fixed", "arrival process: fixed | poisson | burst")
	burstPeriod := flag.Float64("burst-period", 0, "burst window length in seconds (burst arrivals; 0 = default 2)")
	burstDuty := flag.Float64("burst-duty", 0, "fraction of each burst window that offers load (burst arrivals; 0 = default 0.5)")
	duration := flag.Float64("duration", 30, "virtual seconds of offered load")
	executors := flag.Int("executors", 1, "number of GPU executors")
	stepWorkers := flag.Int("step-workers", 0, "goroutines stepping stream sessions beside the event loop (0 = GOMAXPROCS; any value is byte-identical)")
	schedKind := flag.String("sched", "fifo", "scheduler: fifo | fair | priority | edf")
	batch := flag.Int("batch", 1, "max frames fused into one batched launch")
	priorities := flag.String("priorities", "", "comma-separated per-stream priority classes (higher first; priority scheduler)")
	queueCap := flag.Int("queue-cap", 0, "shared queue cap (0 = 4*streams, negative = unbounded)")
	policy := flag.String("policy", "drop-oldest", "queue overflow policy: drop-oldest | drop-newest")
	stale := flag.Float64("stale", 0, "skip frames older than this many seconds at admission (0 = off)")
	degradeDepth := flag.Int("degrade-depth", 0, "degrade to proposal-only when this many frames wait behind the admitted one (0 = off)")
	controller := flag.String("controller", "", "adaptive control plane: baseline (\"\" = off; see internal/serve/control)")
	controlTick := flag.Float64("control-tick", 0, "control-tick spacing in virtual seconds (0 = controller default; needs -controller)")
	reconnect := flag.String("reconnect", "", "camera reconnect policy: reject | resume-with-gap | reset-session (\"\" = reject, or resume-with-gap when a failover policy replays frames)")
	poison := flag.String("poison", "error", "corrupt-frame policy: error | drop")
	maxFrame := flag.Int("max-frame", 0, "largest accepted frame index (0 = default bound)")
	chaos := flag.String("chaos", "", "fault injection, comma-separated k=v: dropout=<per-min>, len=<s>, renumber, jitter=<std>, skew=<s>, poison=<rate>")
	seed := flag.Int64("seed", 1, "world and arrival seed")
	shards := flag.Int("shards", 0, "shard the streams across this many Servers (0 = single fleet; see internal/serve/cluster)")
	gpuTiers := flag.String("gpu-tiers", "", "comma-separated GPU tier per shard, or one name for all (cluster mode; default titanx)")
	hop := flag.Float64("hop", 0, "cross-node hop latency charged to frames served off their hash-home shard (cluster mode; 0 = default 2ms)")
	migrateDepth := flag.Int("migrate-depth", 0, "per-stream queue depth that arms stream migration off a saturated shard (cluster mode; 0 = off)")
	autoscale := flag.String("autoscale", "", "elastic per-shard executors (cluster mode): \"on\" or k=v list min=,max=,interval=,up-queue=,down-idle=,p99=")
	kill := flag.String("kill", "", "comma-separated shard@t kill schedule (cluster mode): \"0@5,2@9.5\"")
	revive := flag.String("revive", "", "comma-separated shard@t revival schedule (cluster mode): \"0@12\"")
	addShard := flag.String("add-shard", "", "comma-separated online shard additions (cluster mode): t or t:tier, e.g. \"10:v100,20\"")
	mtbf := flag.Float64("mtbf", 0, "mean time between stochastic shard kills in virtual seconds (cluster mode; 0 = off)")
	mttr := flag.Float64("mttr", 0, "mean downtime before a stochastic kill's revival (cluster mode; 0 = default 1 when -mtbf is set)")
	failover := flag.String("failover", "", "seized-frame policy when a shard dies (cluster mode): replay | drop | degrade (\"\" = replay)")
	jsonOut := flag.Bool("json", false, "emit the full machine-readable result instead of text")
	sweep := flag.Bool("sweep", false, "run the scheduler x batch grid on this scenario and print a comparison table")
	trace := flag.String("trace", "", "stream per-frame serve events (served/dropped/degraded) as JSONL to this file (\"-\" = stdout)")
	flag.Parse()

	var p video.Preset
	presetAll := *preset == "all"
	if presetAll {
		if !*sweep {
			log.Fatal("-preset all runs one row per scenario pack; it needs -sweep")
		}
		p = video.KITTIPreset() // placeholder; the sweep swaps packs in
	} else {
		var err error
		if p, err = video.PresetByName(*preset); err != nil {
			log.Fatal(err) // carries the full valid-name list
		}
	}

	cfg := serve.Config{
		Spec: sim.SystemSpec{
			Kind:       sim.SystemKind(*system),
			Proposal:   *proposal,
			Refinement: *refinement,
			Cfg:        core.DefaultConfig(),
		},
		Preset:       p,
		Seed:         *seed,
		Streams:      *streams,
		FPS:          *fps,
		StreamFPS:    must(parseList[float64]("stream-fps", *streamFPS)),
		Arrivals:     serve.ArrivalKind(*arrivals),
		BurstPeriod:  *burstPeriod,
		BurstDuty:    *burstDuty,
		Duration:     *duration,
		Executors:    *executors,
		StepWorkers:  *stepWorkers,
		Scheduler:    sched.Kind(*schedKind),
		BatchSize:    *batch,
		Priorities:   must(parseList[int]("priorities", *priorities)),
		QueueCap:     *queueCap,
		Drop:         serve.DropKind(*policy),
		MaxStaleness: *stale,
		DegradeDepth: *degradeDepth,
		Reconnect:    serve.ReconnectPolicy(*reconnect),
		Poison:       serve.PoisonPolicy(*poison),
		MaxFrame:     *maxFrame,
		Chaos:        must(parseChaos(*chaos)),
		Control: control.Config{
			Kind:     control.Kind(*controller),
			Interval: *controlTick,
		},
	}
	if *shards <= 0 && (*gpuTiers != "" || *hop != 0 || *migrateDepth > 0 || *autoscale != "" ||
		*kill != "" || *revive != "" || *addShard != "" || *mtbf != 0 || *mttr != 0 || *failover != "") {
		log.Fatal("-gpu-tiers, -hop, -migrate-depth, -autoscale, -kill, -revive, -add-shard, -mtbf, -mttr and -failover configure the sharded cluster; they need -shards")
	}
	if *shards > 0 {
		if presetAll {
			log.Fatal("-preset all sweeps scenario packs on a single fleet; it does not combine with -shards")
		}
		ccfg := cluster.Config{
			Base:       cfg,
			Shards:     *shards,
			HopLatency: *hop,
			GPUTiers:   must(parseList[string]("gpu-tiers", *gpuTiers)),
			Migration:  cluster.Migration{QueueDepth: *migrateDepth},
			Autoscale:  must(parseAutoscale(*autoscale)),
			Faults:     must(parseFaults(*kill, *revive, *addShard, *mtbf, *mttr, *failover)),
		}
		if err := ccfg.Validate(); err != nil {
			log.Fatal(err)
		}
		record, done := openOutput(*trace, *sweep, *jsonOut)
		defer done()
		if record != nil {
			ccfg.Sink = cluster.SinkFunc(func(e cluster.Event) { record(e) })
		}
		if *sweep {
			runClusterSweep(ccfg)
			return
		}
		res, err := cluster.Run(ccfg)
		if err != nil {
			log.Fatal(err)
		}
		writeResult(res, *jsonOut)
		return
	}
	if err := cfg.Validate(); err != nil {
		// Field-path errors ("serve: Chaos.PoisonRate: ...") point at
		// the flag to fix before any session is built.
		log.Fatal(err)
	}
	record, done := openOutput(*trace, *sweep, *jsonOut)
	defer done()
	if record != nil {
		cfg.Sink = serve.SinkFunc(func(e serve.Event) { record(e) })
	}
	switch {
	case *sweep && presetAll:
		runPresetSweep(cfg)
	case *sweep:
		runSweep(cfg)
	default:
		res, err := serve.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		writeResult(res, *jsonOut)
	}
}

// openOutput is the output path both modes share. It refuses the
// -trace/-sweep/-json combinations that cannot work and opens the
// -trace target ("-" = stdout). record writes one sink event as a JSONL
// line; it is nil without -trace. done closes the trace file.
func openOutput(trace string, sweep, jsonOut bool) (record func(any), done func()) {
	if trace != "" && sweep {
		log.Fatal("-trace streams one scenario's events; it does not combine with -sweep")
	}
	if trace == "-" && jsonOut {
		log.Fatal("-trace - and -json would interleave two machine formats on stdout; trace to a file instead")
	}
	if sweep && jsonOut {
		log.Fatal("-sweep prints a text comparison table; it has no -json form")
	}
	if trace == "" {
		return nil, func() {}
	}
	w, done := io.Writer(os.Stdout), func() {}
	if trace != "-" {
		f, err := os.Create(trace)
		if err != nil {
			log.Fatal(err)
		}
		w, done = f, func() {
			if err := f.Close(); err != nil {
				log.Fatalf("trace: %v", err)
			}
		}
	}
	enc := json.NewEncoder(w)
	return func(e any) {
		if err := enc.Encode(e); err != nil {
			log.Fatalf("trace: %v", err)
		}
	}, done
}

// writeResult prints one scenario's result: indented JSON with -json,
// its text report otherwise.
func writeResult(res interface{ WriteText(io.Writer) }, jsonOut bool) {
	if !jsonOut {
		res.WriteText(os.Stdout)
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		log.Fatal(err)
	}
}

// runSweep replays the exact same offered load under every scheduler
// and batch size and prints one comparison row per combination. When
// no -priorities are given, the priority rows default to class 1 for
// the first half of the streams (so the policy has something to rank).
// With -controller set, a second block reruns the grid under the
// adaptive control plane and each static row gains a pareto column:
// "dom" marks it strictly dominated by an adaptive row on the
// (quality-weighted served, p99) plane.
func runSweep(base serve.Config) {
	type entry struct {
		kind sched.Kind
		b    int
		ctrl string
		res  *serve.Result
	}
	runOne := func(kind sched.Kind, b int, adaptive bool) entry {
		cfg := base
		cfg.Scheduler = kind
		cfg.BatchSize = b
		if kind == sched.Priority && len(cfg.Priorities) == 0 {
			cfg.Priorities = make([]int, cfg.Streams)
			for s := 0; s < cfg.Streams/2; s++ {
				cfg.Priorities[s] = 1
			}
		}
		ctrl := "-"
		if adaptive {
			// The controller owns shedding on its rows; the static
			// threshold stays with the static rows.
			ctrl = string(base.Control.Kind)
			cfg.DegradeDepth = 0
		} else {
			cfg.Control = control.Config{}
		}
		res, err := serve.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return entry{kind, b, ctrl, res}
	}
	var statics, adapts []entry
	for _, kind := range sweepScheds {
		for _, b := range sweepBatches {
			statics = append(statics, runOne(kind, b, false))
		}
	}
	if base.Control.Active() {
		for _, kind := range sweepScheds {
			for _, b := range sweepBatches {
				adapts = append(adapts, runOne(kind, b, true))
			}
		}
	}

	fmt.Printf("sweep: %d streams, %d executors, %.1fs, seed %d (same arrivals every row)\n\n",
		base.Streams, base.Executors, base.Duration, base.Seed)
	hdr := "sched     batch  ctrl      served/offered  drop%   qserved   spread%  p50       p99       tput_fps  util%"
	if len(adapts) > 0 {
		hdr += "  pareto"
	}
	fmt.Println(hdr)
	row := func(e entry, note string) {
		fl := e.res.Fleet
		fmt.Printf("%-9s %5d  %-8s  %6d/%-7d  %5.1f  %8.2f  %7.1f  %-8s  %-8s  %8.1f  %5.1f%s\n",
			e.kind, e.b, e.ctrl, fl.Served, fl.Arrived, 100*fl.DropRate,
			fl.QualityServed(), 100*e.res.DropSpread(),
			msStr(fl.Latency.P50), msStr(fl.Latency.P99),
			fl.Throughput, 100*e.res.Utilization, note)
	}
	for _, s := range statics {
		note := ""
		if len(adapts) > 0 {
			note = "      -"
			sq, sp := s.res.Fleet.QualityServed(), s.res.Fleet.Latency.P99
			for _, a := range adapts {
				aq, ap := a.res.Fleet.QualityServed(), a.res.Fleet.Latency.P99
				if aq >= sq && ap <= sp && (aq > sq || ap < sp) {
					note = "      dom"
					break
				}
			}
		}
		row(s, note)
	}
	for _, a := range adapts {
		row(a, "")
	}
	fmt.Println("\nqserved weights each served frame by its mode's accuracy proxy")
	fmt.Println("(full 1.0, cascade 0.95, proposal-only 0.6); spread% is max-min")
	fmt.Println("per-stream drop rate. Batched rows pay the per-launch constant b")
	fmt.Println("once per batch (alpha*SUM(W) + b).")
	if len(adapts) > 0 {
		fmt.Println("Static rows marked dom are strictly Pareto-dominated on the")
		fmt.Println("(qserved, p99) plane by an adaptive row: the controller serves")
		fmt.Println("no less quality at no more tail latency.")
	}
}

// runPresetSweep replays the same fleet and fault config against every
// scenario pack and prints one comparison row per pack: how the same
// serving stack fares under a dense crowd, a high-speed highway, a
// drone top-down, a low-light night feed and a fast-pan sports camera.
func runPresetSweep(base serve.Config) {
	fmt.Printf("preset sweep: %d streams, %d executors, %.1fs, seed %d (same fleet every row)\n\n",
		base.Streams, base.Executors, base.Duration, base.Seed)
	fmt.Println("preset       served/offered  drop%   reconn  pills  p50       p99       tput_fps  util%")
	for _, name := range video.PresetNames() {
		p, err := video.PresetByName(name)
		if err != nil {
			log.Fatal(err)
		}
		cfg := base
		cfg.Preset = p
		res, err := serve.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fl := res.Fleet
		fmt.Printf("%-12s %6d/%-7d  %5.1f  %6d  %5d  %-8s  %-8s  %8.1f  %5.1f\n",
			name, fl.Served, fl.Arrived, 100*fl.DropRate, fl.Reconnects, fl.DroppedPoison,
			msStr(fl.Latency.P50), msStr(fl.Latency.P99), fl.Throughput, 100*res.Utilization)
	}
	fmt.Println("\nEach pack is a distinct world distribution (density, object size,")
	fmt.Println("apparent speed); night additionally degrades the detectors' noise.")
}

// runClusterSweep replays the exact same offered load under static
// per-shard executor counts 1..4 and under the elastic autoscaler, and
// prints one economics row per capacity plan. The -autoscale flag (or
// its defaults) shapes the elastic row; static rows force it off.
func runClusterSweep(base cluster.Config) {
	n := base.Normalized()
	fmt.Printf("cluster sweep: %d streams over %d shards (%s), %.1fs, seed %d (same arrivals every row)\n\n",
		n.Base.Streams, n.Shards, strings.Join(n.GPUTiers, ","), n.Base.Duration, n.Base.Seed)
	fmt.Println("capacity    served/offered  drop%   p50       p99       migr  resz  cost$     served/$")
	row := func(label string, cfg cluster.Config) {
		res, err := cluster.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fl := res.Fleet
		fmt.Printf("%-10s  %6d/%-7d  %5.1f  %-8s  %-8s  %4d  %4d  %8.4f  %8.1f\n",
			label, fl.Served, fl.Arrived, 100*fl.DropRate,
			msStr(fl.Latency.P50), msStr(fl.Latency.P99),
			res.Migrations, res.Resizes, res.Cost, res.ServedPerDollar)
	}
	for execs := 1; execs <= 4; execs++ {
		cfg := base
		cfg.Autoscale = cluster.Autoscale{}
		cfg.Base.Executors = execs
		row(fmt.Sprintf("static x%d", execs), cfg)
	}
	elastic := base
	elastic.Autoscale.Enabled = true
	row("elastic", elastic)
	fmt.Println("\nstatic rows pin every shard at n executors for the whole scenario;")
	fmt.Println("the elastic row rents per-shard capacity from live queue depth, so")
	fmt.Println("cost follows load. served/$ is the economic headline: served frames")
	fmt.Println("per modeled rental dollar at the shard tiers' prices.")
}

// parseAutoscale parses the -autoscale flag: "" (off), "on" (defaults),
// or a comma-separated k=v list ("min=0,max=2,interval=0.25,up-queue=4,
// down-idle=1,p99=0.5"). Range checking is cluster.Config.Validate's
// job; this only maps names to fields.
func parseAutoscale(s string) (cluster.Autoscale, error) {
	var a cluster.Autoscale
	if s == "" {
		return a, nil
	}
	a.Enabled = true
	if s == "on" {
		return a, nil
	}
	err := parseKV("autoscale", s, []knob{
		kv("min", &a.Min), kv("max", &a.Max), kv("interval", &a.Interval),
		kv("up-queue", &a.UpQueue), kv("down-idle", &a.DownIdle), kv("p99", &a.P99),
	})
	return a, err
}

// parseFaults maps the failure-injection flags onto a cluster
// FaultPlan: -kill and -revive take comma-separated shard@t entries,
// -add-shard takes t or t:tier entries, -mtbf/-mttr shape the seeded
// stochastic process and -failover names the seized-frame policy.
// Range checking (shard bounds, tier names, policy enum) is
// cluster.Config.Validate's job; this only parses the grammar.
func parseFaults(kill, revive, addShard string, mtbf, mttr float64, failover string) (cluster.FaultPlan, error) {
	plan := cluster.FaultPlan{
		MTBF:     mtbf,
		MTTR:     mttr,
		Failover: cluster.FailoverPolicy(failover),
	}
	shardAt := func(name string, list string, kind cluster.FaultKind) error {
		parts, _ := parseList[string](name, list)
		for _, part := range parts {
			s, at, ok := strings.Cut(part, "@")
			if !ok {
				return fmt.Errorf("%s: %q is not shard@t (e.g. \"0@5\")", name, part)
			}
			shard, err := parseValue[int](strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("%s: bad shard in %q: %v", name, part, err)
			}
			t, err := parseValue[float64](strings.TrimSpace(at))
			if err != nil {
				return fmt.Errorf("%s: bad time in %q: %v", name, part, err)
			}
			plan.Faults = append(plan.Faults, cluster.Fault{Time: t, Kind: kind, Shard: shard})
		}
		return nil
	}
	if err := shardAt("kill", kill, cluster.FaultKill); err != nil {
		return plan, err
	}
	if err := shardAt("revive", revive, cluster.FaultRevive); err != nil {
		return plan, err
	}
	adds, _ := parseList[string]("add-shard", addShard)
	for _, part := range adds {
		at, tier, _ := strings.Cut(part, ":")
		t, err := parseValue[float64](strings.TrimSpace(at))
		if err != nil {
			return plan, fmt.Errorf("add-shard: bad time in %q (want t or t:tier): %v", part, err)
		}
		plan.Faults = append(plan.Faults, cluster.Fault{Time: t, Kind: cluster.FaultAddShard, Tier: strings.TrimSpace(tier)})
	}
	return plan, nil
}

// parseChaos parses the -chaos flag: a comma-separated k=v list
// ("dropout=30,len=0.6,renumber,jitter=0.15,skew=0.08,poison=0.04").
// "" means no chaos. Range checking is Config.Validate's job; this
// only maps names to fields.
func parseChaos(s string) (serve.Chaos, error) {
	var ch serve.Chaos
	err := parseKV("chaos", s, []knob{
		kv("dropout", &ch.DropoutRate), kv("len", &ch.DropoutMeanLen),
		{key: "renumber", on: &ch.Renumber},
		kv("jitter", &ch.FPSJitter), kv("skew", &ch.ClockSkew), kv("poison", &ch.PoisonRate),
	})
	return ch, err
}

// knob binds one key of a comma-separated k=v flag to its config
// field: set parses a k=v value, on is the target of a bare switch.
type knob struct {
	key string
	set func(string) error
	on  *bool
}

// kv is the knob that parses key's value into *p.
func kv[T int | float64](key string, p *T) knob {
	return knob{key: key, set: func(s string) (err error) {
		*p, err = parseValue[T](s)
		return err
	}}
}

// parseKV sets the knobs a comma-separated k=v flag value names ("" =
// none), in order: each entry is key=value, or a bare key for a
// switch.
func parseKV(name, s string, knobs []knob) error {
	if s == "" {
		return nil
	}
	keys := make([]string, len(knobs))
	for i, k := range knobs {
		keys[i] = k.key
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		key, val, hasVal := strings.Cut(part, "=")
		i := slices.Index(keys, key)
		switch {
		case i >= 0 && knobs[i].on != nil:
			if hasVal {
				return fmt.Errorf("%s: %s is a bare switch, got %q", name, key, part)
			}
			*knobs[i].on = true
		case !hasVal:
			return fmt.Errorf("%s: %q is not k=v (keys: %s)", name, part, strings.Join(keys, ", "))
		case i < 0:
			return fmt.Errorf("%s: unknown key %q (keys: %s)", name, key, strings.Join(keys, ", "))
		default:
			if err := knobs[i].set(strings.TrimSpace(val)); err != nil {
				return fmt.Errorf("%s: bad value in %q: %v", name, part, err)
			}
		}
	}
	return nil
}

// parseList parses a comma-separated flag list ("" = nil), trimming
// each entry.
func parseList[T int | float64 | string](name, s string) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]T, len(parts))
	for i, p := range parts {
		v, err := parseValue[T](strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("%s: bad list entry %q: %v", name, p, err)
		}
		out[i] = v
	}
	return out, nil
}

// parseValue parses one flag value as a T.
func parseValue[T int | float64 | string](s string) (T, error) {
	var v T
	var err error
	switch p := any(&v).(type) {
	case *int:
		*p, err = strconv.Atoi(s)
	case *float64:
		*p, err = strconv.ParseFloat(s, 64)
	case *string:
		*p = s
	}
	return v, err
}

// must ends the command on a flag parse error.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func msStr(s float64) string { return fmt.Sprintf("%.1fms", 1000*s) }
