package catdet

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablation benches for the tracker's design
// choices (the set sim.Engine.Ablations evaluates) and the GPU model's
// region merging. Each benchmark regenerates its experiment on a
// reduced (but statistically stable) world and reports the headline
// quantities via b.ReportMetric, so `go test -bench=.` doubles as a
// compact reproduction run. The full-scale tables are produced by
// cmd/experiments.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/gpumodel"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
	"repro/internal/serve/control"
	"repro/internal/serve/sched"
	"repro/internal/sim"
	"repro/internal/tracker"
	"repro/internal/video"
)

var (
	benchOnce  sync.Once
	benchKITTI *dataset.Dataset
	benchCity  *dataset.Dataset
)

func benchData() (*dataset.Dataset, *dataset.Dataset) {
	benchOnce.Do(func() {
		kp := video.KITTIPreset()
		kp.NumSequences = 4
		kp.FramesPerSeq = 250
		benchKITTI = video.Generate(kp, 1)

		cp := video.CityPersonsPreset()
		cp.NumSequences = 40
		benchCity = video.Generate(cp, 1)
	})
	return benchKITTI, benchCity
}

func BenchmarkTable1ProposalNetOps(b *testing.B) {
	var rows []sim.Table1Row
	for i := 0; i < b.N; i++ {
		rows = sim.Table1()
	}
	for _, r := range rows {
		b.ReportMetric(r.Gops, r.Spec.Name+"_Gops")
	}
}

func BenchmarkTable2KITTIMain(b *testing.B) {
	ds, _ := benchData()
	var rows []sim.MainRow
	for i := 0; i < b.N; i++ {
		rows = sim.Engine{}.Table2(ds)
	}
	b.ReportMetric(rows[0].MAPHard, "single_mAP_hard")
	b.ReportMetric(rows[2].MAPHard, "catdet10a_mAP_hard")
	b.ReportMetric(rows[0].Gops/rows[2].Gops, "catdet10a_ops_saving_x")
	b.ReportMetric(rows[0].Gops/rows[4].Gops, "catdet10b_ops_saving_x")
}

func BenchmarkTable3OpsBreakdown(b *testing.B) {
	ds, _ := benchData()
	var rows []sim.BreakdownRow
	for i := 0; i < b.N; i++ {
		rows = sim.Engine{}.Table3(ds)
	}
	// CaTDet (10a, 50) row.
	b.ReportMetric(rows[1].Proposal, "proposal_Gops")
	b.ReportMetric(rows[1].Refinement, "refinement_Gops")
	b.ReportMetric(rows[1].FromTracker, "from_tracker_Gops")
	b.ReportMetric(rows[1].FromProposal, "from_proposal_Gops")
}

func BenchmarkTable4ProposalNets(b *testing.B) {
	ds, _ := benchData()
	var rows []sim.StudyRow
	for i := 0; i < b.N; i++ {
		rows = sim.Engine{}.Table4(ds)
	}
	spreadSingle := rows[0].MAP - rows[6].MAP // res18 single vs res10c single
	spreadCat := math.Abs(rows[1].MAP - rows[7].MAP)
	b.ReportMetric(spreadSingle, "single_mAP_spread")
	b.ReportMetric(spreadCat, "catdet_mAP_spread")
}

func BenchmarkTable5RefinementNets(b *testing.B) {
	ds, _ := benchData()
	var rows []sim.StudyRow
	for i := 0; i < b.N; i++ {
		rows = sim.Engine{}.Table5(ds)
	}
	for i := 0; i < len(rows); i += 2 {
		b.ReportMetric(rows[i+1].MAP-rows[i].MAP, rows[i].Model+"_catdetR_minus_single_mAP")
	}
}

func BenchmarkTable6CityPersons(b *testing.B) {
	_, city := benchData()
	var rows []sim.CityRow
	for i := 0; i < b.N; i++ {
		rows = sim.Engine{}.Table6(city)
	}
	b.ReportMetric(rows[0].MAP, "single_mAP")
	b.ReportMetric(rows[1].MAP, "cascaded10a_mAP")
	b.ReportMetric(rows[2].MAP, "catdet10a_mAP")
	b.ReportMetric(rows[0].Gops/rows[4].Gops, "catdet10b_ops_saving_x")
}

func BenchmarkTable7GPUTiming(b *testing.B) {
	ds, _ := benchData()
	var rows []sim.TimingRow
	for i := 0; i < b.N; i++ {
		rows = sim.Engine{}.Table7(ds)
	}
	b.ReportMetric(rows[0].GPUOnly, "single_gpu_s")
	b.ReportMetric(rows[1].GPUOnly, "catdet_gpu_s")
	b.ReportMetric(rows[0].Total, "single_total_s")
	b.ReportMetric(rows[1].Total, "catdet_total_s")
}

func BenchmarkTable8RetinaNet(b *testing.B) {
	ds, _ := benchData()
	var rows []sim.StudyRow
	for i := 0; i < b.N; i++ {
		rows = sim.Engine{}.Table8(ds)
	}
	b.ReportMetric(rows[0].MAP, "single_mAP_moderate")
	b.ReportMetric(rows[1].MAP, "catdet_mAP_moderate")
	b.ReportMetric(rows[0].Gops/rows[1].Gops, "ops_saving_x")
}

func BenchmarkFigure6CThreshSweep(b *testing.B) {
	ds, _ := benchData()
	// A reduced grid keeps the bench under control; cmd/experiments
	// runs the paper's full grid.
	grid := []float64{0.01, 0.1, 0.6}
	var pts []sim.SweepPoint
	for i := 0; i < b.N; i++ {
		pts = sim.Engine{}.Figure6(ds, grid)
	}
	// Report the tracker-vs-no-tracker mAP gap for resnet10a at the
	// lowest and highest thresholds.
	var withLo, withHi, withoutLo, withoutHi float64
	for _, p := range pts {
		if p.Model != "resnet10a" {
			continue
		}
		switch {
		case p.Tracker && p.CThresh == grid[0]:
			withLo = p.MAP
		case p.Tracker && p.CThresh == grid[len(grid)-1]:
			withHi = p.MAP
		case !p.Tracker && p.CThresh == grid[0]:
			withoutLo = p.MAP
		case !p.Tracker && p.CThresh == grid[len(grid)-1]:
			withoutHi = p.MAP
		}
	}
	b.ReportMetric(withLo-withHi, "with_tracker_mAP_drop")
	b.ReportMetric(withoutLo-withoutHi, "without_tracker_mAP_drop")
	b.ReportMetric(withLo-withoutLo, "tracker_gain_at_low_cthresh")
}

func BenchmarkFigure7DelayRecall(b *testing.B) {
	ds, _ := benchData()
	var curves map[dataset.Class][]metrics.CurvePoint
	for i := 0; i < b.N; i++ {
		curves = sim.Engine{}.Figure7(ds)
	}
	for _, c := range ds.Classes {
		if pts := curves[c]; len(pts) > 0 {
			b.ReportMetric(pts[0].Recall, c.String()+"_recall_at_p05")
			b.ReportMetric(pts[0].Delay, c.String()+"_delay_at_p05")
		}
	}
}

// BenchmarkTrackerThroughput measures raw tracker frames/second on a
// KITTI-like detection stream (the paper reports 1082 fps on one Xeon
// core for the Python implementation).
func BenchmarkTrackerThroughput(b *testing.B) {
	ds, _ := benchData()
	seq := &ds.Sequences[0]
	// Precompute per-frame ground-truth "detections".
	frames := make([][]geom.Scored, len(seq.Frames))
	for fi := range seq.Frames {
		for _, o := range seq.Frames[fi].Objects {
			frames[fi] = append(frames[fi], geom.Scored{Box: o.Box, Score: 1, Class: int(o.Class)})
		}
	}
	var preds []geom.Scored
	b.ResetTimer()
	processed := 0
	for i := 0; i < b.N; i++ {
		trk := tracker.New(tracker.DefaultConfig(), float64(seq.Width), float64(seq.Height))
		for fi := range frames {
			trk.Observe(frames[fi])
			preds = trk.PredictAppend(preds[:0])
			processed++
		}
	}
	b.ReportMetric(float64(processed)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkCaTDetStep times the detection system's Step alone: one op
// resets the (Res10a, Res50) CaTDet system and steps it over one whole
// KITTI-sim sequence. Its allocs/op is the per-sequence allocation
// count (one Detections slice per frame: Reset keeps the tracker, its
// recycled tracks and its scratch), which the bench-diff gate pins. One
// untimed warm-up sequence grows that state first, so the count is the
// steady state's at any -benchtime.
func BenchmarkCaTDetStep(b *testing.B) {
	ds, _ := benchData()
	seq := &ds.Sequences[0]
	sys := engineBenchSpec().MustBuild(ds.Classes)
	var out core.FrameOutput
	step := func() {
		sys.Reset(seq)
		for fi := range seq.Frames {
			out = sys.Step(detector.FrameOf(seq, fi))
		}
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(seq.Frames)), "ns/frame")
	benchStepSink = out
}

// benchStepSink keeps the last Step's output reachable so the compiler
// cannot drop the stepping loop.
var benchStepSink core.FrameOutput

// --- Engine benches: serial loop vs sharded parallel runner ---

// engineBenchSpec is the (Res10a, Res50) CaTDet system every runner
// bench uses, so serial and parallel numbers are directly comparable.
func engineBenchSpec() sim.SystemSpec {
	return sim.SystemSpec{Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: core.DefaultConfig()}
}

// BenchmarkRunSerial is the baseline: the single-goroutine catdet.Run.
func BenchmarkRunSerial(b *testing.B) {
	ds, _ := benchData()
	spec := engineBenchSpec()
	for i := 0; i < b.N; i++ {
		Run(spec.MustBuild(ds.Classes), ds)
	}
}

// BenchmarkRunParallel shards the same run across 1, 2 and 4 workers;
// compare ns/op against BenchmarkRunSerial for the engine speedup.
func BenchmarkRunParallel(b *testing.B) {
	ds, _ := benchData()
	spec := engineBenchSpec()
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng := sim.Engine{Workers: w}
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(spec, ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineTable2 measures a whole table regeneration at several
// worker counts (the workload of cmd/experiments -workers N).
func BenchmarkEngineTable2(b *testing.B) {
	ds, _ := benchData()
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng := sim.Engine{Workers: w}
			for i := 0; i < b.N; i++ {
				eng.Table2(ds)
			}
		})
	}
}

// BenchmarkEvaluate times the metrics layer alone: sim.Evaluate at Hard
// (mAP and mD@0.8, one matching pass sharded by sequence) over one
// full KITTI-sim world and one CaTDet (Res10a, Res50) run, both built
// before the timer starts.
func BenchmarkEvaluate(b *testing.B) {
	ds := video.Generate(video.KITTIPreset(), 1)
	r := sim.Engine{}.MustRun(engineBenchSpec(), ds)
	var ev sim.Evaluation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev = sim.Evaluate(ds, r, dataset.Hard, sim.Beta)
	}
	b.ReportMetric(ev.MAP, "mAP_hard")
	b.ReportMetric(ev.MeanDelay, "mD08_hard")
}

// --- Serving benches: the online layer under moderate and heavy load ---

// serveBenchConfig is a small serving scenario on the mini world.
func serveBenchConfig() ServeConfig {
	return ServeConfig{
		Spec:      engineBenchSpec(),
		Preset:    MiniKITTIPreset(),
		Seed:      1,
		Streams:   4,
		FPS:       10,
		Arrivals:  serve.Poisson,
		Duration:  5,
		Executors: 2,
	}
}

// BenchmarkServeCaTDet measures the event loop end to end and reports
// the headline serving quantities.
func BenchmarkServeCaTDet(b *testing.B) {
	cfg := serveBenchConfig()
	var res *ServeResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Serve(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Fleet.Throughput, "served_fps")
	b.ReportMetric(1000*res.Fleet.Latency.P99, "p99_ms")
	b.ReportMetric(100*res.Fleet.DropRate, "drop_pct")
}

// BenchmarkServeOverload measures the drop/degrade path: twice the
// load on half the executors with every backpressure policy on.
func BenchmarkServeOverload(b *testing.B) {
	cfg := serveBenchConfig()
	cfg.Streams = 8
	cfg.Executors = 1
	cfg.QueueCap = 8
	cfg.MaxStaleness = 0.3
	cfg.DegradeDepth = 4
	var res *ServeResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Serve(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Fleet.DropRate, "drop_pct")
	b.ReportMetric(float64(res.Fleet.Degraded), "degraded_frames")
	b.ReportMetric(1000*res.Fleet.Latency.P99, "p99_ms")
}

// BenchmarkServeBatched measures the batched-executor path: the same
// overload as BenchmarkServeOverload with four frames fused per launch
// (alpha*sum(W)+b), reporting the amortization as served throughput.
func BenchmarkServeBatched(b *testing.B) {
	cfg := serveBenchConfig()
	cfg.Streams = 8
	cfg.Executors = 1
	cfg.QueueCap = 8
	cfg.MaxStaleness = 0.3
	cfg.BatchSize = 4
	var res *ServeResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Serve(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Fleet.Throughput, "served_fps")
	b.ReportMetric(float64(res.Fleet.Served)/float64(res.Batches), "frames_per_launch")
	b.ReportMetric(100*res.Fleet.DropRate, "drop_pct")
}

// BenchmarkServeParallelStep measures the pipelined step: a wide fleet
// (8 streams on 8 executors) with the engine stepping every frame
// itself (workers=1) and with GOMAXPROCS-1 background step workers
// beside it. Outputs are byte-identical by construction
// (TestDeterminism pins it); the interesting number is the ns/op gap,
// which on a single-core runner is the step queue's bookkeeping and on
// multi-core hardware the share of the sessions' stepping that
// overlaps the event loop.
func BenchmarkServeParallelStep(b *testing.B) {
	base := serveBenchConfig()
	base.Streams = 8
	base.FPS = 15
	base.Executors = 8
	base.Duration = 4
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=gomaxprocs", runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := base
			cfg.StepWorkers = bc.workers
			var res *ServeResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Serve(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Fleet.Throughput, "served_fps")
			b.ReportMetric(float64(res.Fleet.Served), "served_frames")
		})
	}
}

// BenchmarkServeFair measures the deficit-round-robin scheduler under
// one hot stream among quiet ones, reporting the drop-rate spread the
// policy is there to shrink.
func BenchmarkServeFair(b *testing.B) {
	cfg := serveBenchConfig()
	cfg.Streams = 8
	cfg.Executors = 1
	cfg.StreamFPS = []float64{40, 10, 10, 10, 10, 10, 10, 10}
	cfg.MaxStaleness = 0.3
	cfg.Scheduler = sched.Fair
	var res *ServeResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Serve(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.DropSpread(), "drop_spread_pct")
	b.ReportMetric(res.Fleet.Throughput, "served_fps")
}

// BenchmarkServerStats measures the live snapshot path: one Stats per
// op on a warm 32-stream Server after ingest, the read a dashboard poll
// or a cluster router tick makes of each shard.
func BenchmarkServerStats(b *testing.B) {
	cfg := serveBenchConfig()
	cfg.Streams = 32
	cfg.Executors = 8
	srv, err := NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	for _, a := range serve.Schedule(cfg) {
		if err := srv.Submit(a.Stream, a.Frame, a.At); err != nil {
			b.Fatal(err)
		}
	}
	var st serve.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = srv.Stats()
	}
	b.ReportMetric(float64(st.Fleet.Served), "served_frames")
}

// BenchmarkClusterOverload measures the cluster path end to end: 16
// bursty mini-world streams over 4 shards at several times their
// capacity, with a queue cap, the baseline controller, migration,
// autoscaling and seeded shard kills with replay failover. Each op
// builds the Router (its shards share one set of stream worlds),
// ingests the preset schedule and drains it.
func BenchmarkClusterOverload(b *testing.B) {
	base := serveBenchConfig()
	base.Streams = 16
	base.Executors = 1
	base.Arrivals = serve.Burst
	base.BurstPeriod = 2
	base.BurstDuty = 0.25
	base.Duration = 8
	base.QueueCap = 8
	base.MaxStaleness = 0.5
	base.Control = control.Config{Kind: control.KindBaseline}
	cfg := cluster.Config{
		Base:      base,
		Shards:    4,
		Migration: cluster.Migration{QueueDepth: 2, Cooldown: 1, MaxPerStream: 2},
		Autoscale: cluster.Autoscale{Enabled: true, Min: 1, Max: 2},
		Faults:    cluster.FaultPlan{MTBF: 2, MTTR: 1, Failover: cluster.FailoverReplay},
	}
	var res *cluster.Result
	for i := 0; i < b.N; i++ {
		r, err := cluster.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range serve.Schedule(cfg.Base) {
			if err := r.Submit(a.Stream, a.Frame, a.At); err != nil {
				b.Fatal(err)
			}
		}
		if res, err = r.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
	b.ReportMetric(float64(res.Fleet.Served)/float64(res.Fleet.Arrived), "served_frac")
	b.ReportMetric(float64(res.Migrations), "migrations")
	b.ReportMetric(float64(res.Faults.Kills), "kills")
}

// BenchmarkClusterNew measures cluster set-up alone on the repository
// benchmark's cluster-overload config: 64 KITTI-sim streams over 4
// shards, two step workers, a queue cap, the baseline controller,
// migration, autoscaling and a replay FaultPlan. Each op builds the
// Router — the shared stream worlds, warm-up included, and every
// shard's sessions — and closes it without serving a frame.
func BenchmarkClusterNew(b *testing.B) {
	cfg := cluster.Config{
		Base: serve.Config{
			Spec: sim.SystemSpec{Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50",
				Cfg: core.DefaultConfig()},
			Seed: 1, Streams: 64, Duration: 120, Executors: 1, StepWorkers: 2,
			Scheduler: sched.FIFO, QueueCap: 8, MaxStaleness: 0.5,
			Control: control.Config{Kind: control.KindBaseline},
		},
		Shards:    4,
		Migration: cluster.Migration{QueueDepth: 2, Cooldown: 1, MaxPerStream: 2},
		Autoscale: cluster.Autoscale{Enabled: true, Min: 1, Max: 2},
		Faults:    cluster.FaultPlan{MTBF: 8, MTTR: 2, Failover: cluster.FailoverReplay, Seed: 1},
	}
	for i := 0; i < b.N; i++ {
		r, err := cluster.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

// --- Ablation benches (tracker design choices and GPU region merging) ---

func ablationRun(b *testing.B, cfg core.Config) (mapHard float64, gops float64) {
	ds, _ := benchData()
	spec := sim.SystemSpec{Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: cfg}
	var ev sim.Evaluation
	var r *sim.RunResult
	for i := 0; i < b.N; i++ {
		r = Run(spec.MustBuild(ds.Classes), ds)
		ev = sim.Evaluate(ds, r, dataset.Hard, sim.Beta)
	}
	return ev.MAP, r.AvgGops()
}

// Exponential-decay motion model (the paper's choice) vs SORT's Kalman
// filter.
func BenchmarkAblationMotionModel(b *testing.B) {
	decayCfg := core.DefaultConfig()
	kalman := tracker.DefaultConfig()
	kalman.Motion = tracker.Kalman
	kalmanCfg := core.DefaultConfig()
	kalmanCfg.Tracker = &kalman

	mapDecay, _ := ablationRun(b, decayCfg)
	mapKalman, _ := ablationRun(b, kalmanCfg)
	b.ReportMetric(mapDecay, "mAP_decay")
	b.ReportMetric(mapKalman, "mAP_kalman")
}

// Adaptive match/miss confidence vs a fixed track age (every track
// coasts the same number of frames after a miss).
func BenchmarkAblationTrackRetention(b *testing.B) {
	fixed := tracker.DefaultConfig()
	fixed.InitialConfidence = fixed.MaxConfidence // no need to earn retention
	fixedCfg := core.DefaultConfig()
	fixedCfg.Tracker = &fixed

	mapAdaptive, gopsAdaptive := ablationRun(b, core.DefaultConfig())
	mapFixed, gopsFixed := ablationRun(b, fixedCfg)
	b.ReportMetric(mapAdaptive, "mAP_adaptive")
	b.ReportMetric(mapFixed, "mAP_fixed_age")
	b.ReportMetric(gopsFixed-gopsAdaptive, "extra_Gops_fixed_age")
}

// Prediction workload filters (min width, boundary chop) on vs off.
func BenchmarkAblationPredictionFilter(b *testing.B) {
	open := tracker.DefaultConfig()
	open.MinPredWidth = 0
	open.MinVisibleFrac = 0
	openCfg := core.DefaultConfig()
	openCfg.Tracker = &open

	mapFiltered, gopsFiltered := ablationRun(b, core.DefaultConfig())
	mapOpen, gopsOpen := ablationRun(b, openCfg)
	b.ReportMetric(mapFiltered, "mAP_filtered")
	b.ReportMetric(mapOpen, "mAP_unfiltered")
	b.ReportMetric(gopsOpen-gopsFiltered, "Gops_saved_by_filters")
}

// Per-class association (the paper's rule) vs class-agnostic matching.
func BenchmarkAblationClassAgnostic(b *testing.B) {
	agnostic := tracker.DefaultConfig()
	agnostic.PerClass = false
	agnosticCfg := core.DefaultConfig()
	agnosticCfg.Tracker = &agnostic

	mapPerClass, _ := ablationRun(b, core.DefaultConfig())
	mapAgnostic, _ := ablationRun(b, agnosticCfg)
	b.ReportMetric(mapPerClass, "mAP_per_class")
	b.ReportMetric(mapAgnostic, "mAP_class_agnostic")
}

// Greedy GPU region merging vs launching every region separately.
func BenchmarkAblationGPUMerge(b *testing.B) {
	ds, _ := benchData()
	gm := gpumodel.Default()
	refCost := ops.MustCostModel("resnet50")
	spec := sim.SystemSpec{Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: core.DefaultConfig()}

	var merged, unmerged float64
	for i := 0; i < b.N; i++ {
		merged, unmerged = 0, 0
		sys := spec.MustBuild(ds.Classes).(*core.CaTDet)
		frames := 0
		for si := range ds.Sequences {
			seq := &ds.Sequences[si]
			sys.Reset(seq)
			for fi := range seq.Frames {
				out := sys.Step(detector.Frame{
					SeqID: seq.ID, Index: fi, Width: seq.Width, Height: seq.Height,
					Objects: seq.Frames[fi].Objects,
				})
				ft := gm.CaTDetFrame(out.Ops.Proposal, out.Regions,
					float64(seq.Width), float64(seq.Height), refCost, out.NumProposals)
				merged += ft.GPU
				// Unmerged: every region is its own launch.
				u := gm.LaunchTime(out.Ops.Proposal)
				for _, reg := range out.Regions {
					u += gm.LaunchTime(gm.RegionWorkload(reg, float64(seq.Width), float64(seq.Height), refCost, 0))
				}
				unmerged += u
				frames++
			}
		}
		merged /= float64(frames)
		unmerged /= float64(frames)
	}
	b.ReportMetric(merged, "gpu_s_merged")
	b.ReportMetric(unmerged, "gpu_s_unmerged")
}
