package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gpumodel"
	"repro/internal/serve"
	"repro/internal/serve/control"
	"repro/internal/sim"
	"repro/internal/video"
)

// baseConfig is a small CaTDet scenario on the mini world; tests tweak
// the returned copy.
func baseConfig() serve.Config {
	return serve.Config{
		Spec: sim.SystemSpec{
			Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50",
			Cfg: core.DefaultConfig(),
		},
		Preset:   video.MiniKITTIPreset(),
		Seed:     1,
		Streams:  6,
		FPS:      15,
		Arrivals: serve.Poisson,
		Duration: 4,
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func marshal(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// everythingOn is the kitchen-sink cluster scenario the determinism
// matrix pins: bursty load, heterogeneous tiers, migration and the
// autoscaler all at once.
func everythingOn() Config {
	base := baseConfig()
	base.Arrivals = serve.Burst
	base.BurstPeriod = 1.5
	base.BurstDuty = 0.5
	base.QueueCap = 64
	return Config{
		Base:      base,
		GPUTiers:  []string{"titanx", "v100", "k80"},
		Migration: Migration{QueueDepth: 3},
		Autoscale: Autoscale{Enabled: true, Max: 3},
	}
}

// TestClusterDeterminism is the cluster-wide determinism contract: for
// every (shards, executors) scenario — the identity axes — the merged
// books are byte-identical across reruns and across Base.StepWorkers 1
// and 4 (the execution knob), with migration, autoscaling, tiers and
// burst arrivals all live.
func TestClusterDeterminism(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, executors := range []int{1, 2} {
			t.Run(fmt.Sprintf("shards=%d/executors=%d", shards, executors), func(t *testing.T) {
				var golden []byte
				for _, workers := range []int{1, 4, 1} { // trailing 1 = rerun
					cfg := everythingOn()
					cfg.Shards = shards
					cfg.GPUTiers = []string{"titanx", "v100", "k80", "v100"}[:shards]
					cfg.Base.Executors = executors
					cfg.Base.StepWorkers = workers
					b := marshal(t, mustRun(t, cfg))
					if golden == nil {
						golden = b
					} else if !bytes.Equal(golden, b) {
						t.Fatalf("books diverge at StepWorkers=%d", workers)
					}
				}
			})
		}
	}
}

// TestOneShardMatchesServe pins the degenerate cluster: one shard, no
// control policies — the shard's book is byte-identical to serve.Run of
// the same Base, and the merged rows echo it.
func TestOneShardMatchesServe(t *testing.T) {
	base := baseConfig()
	single, err := serve.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(single)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, Config{Base: base, Shards: 1})
	got, err := json.Marshal(r.PerShard[0].Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("one-shard book differs from serve.Run:\n  serve:   %s\n  cluster: %s", want, got)
	}
	if r.Fleet.Served != single.Fleet.Served || r.Fleet.Arrived != single.Fleet.Arrived {
		t.Errorf("merged fleet (%d/%d) != single fleet (%d/%d)",
			r.Fleet.Served, r.Fleet.Arrived, single.Fleet.Served, single.Fleet.Arrived)
	}
	if r.Migrations != 0 || r.Resizes != 0 {
		t.Errorf("control plane acted on an uncontrolled cluster: %d migrations, %d resizes", r.Migrations, r.Resizes)
	}
	if got, want := r.Cost, float64(single.Executors)*single.LastEventAt*0.0005; got != want {
		t.Errorf("static titanx cost = %v, want executors*makespan*$/s = %v", got, want)
	}
}

// TestMigrationSemantics drives one hot stream (8x the fps of its
// peers) into a two-shard cluster and pins the migration contract: the
// hot stream migrates exactly once, a cluster epoch is minted, frames
// after the move land on the target (the books partition the stream
// across both shards), and the merged totals reconcile with both the
// shard books and the live Stats.
func TestMigrationSemantics(t *testing.T) {
	base := baseConfig()
	base.StreamFPS = []float64{15, 15, 15, 15, 15, 120}
	base.QueueCap = 256
	cfg := Config{
		Base:      base,
		Shards:    2,
		Migration: Migration{QueueDepth: 4},
	}
	var migrations []Event
	cfg.Sink = SinkFunc(func(e Event) {
		if e.Kind == EventMigrate {
			migrations = append(migrations, e)
		}
	})
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, a := range serve.Schedule(r.cfg.Base) {
		if err := r.Submit(a.Stream, a.Frame, a.At); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const hot = 5
	if res.Migrations != len(migrations) {
		t.Errorf("result books %d migrations, sink saw %d", res.Migrations, len(migrations))
	}
	perStream := make([]int, base.Streams)
	hotMigs := []Event(nil)
	for _, e := range migrations {
		perStream[e.Stream]++
		if e.Stream == hot {
			hotMigs = append(hotMigs, e)
		}
	}
	for i, n := range perStream {
		if n > 1 {
			t.Errorf("stream %d migrated %d times, MaxPerStream is 1", i, n)
		}
	}
	if len(hotMigs) != 1 {
		t.Fatalf("hot stream migrated %d times, want exactly 1 (all migrations: %+v)", len(hotMigs), migrations)
	}
	mig := hotMigs[0]
	if mig.Epoch != 1 {
		t.Errorf("migration epoch = %d, want 1", mig.Epoch)
	}
	if mig.From == mig.To {
		t.Errorf("migration from shard %d to itself", mig.From)
	}
	_, owner := r.Placement()
	if owner[hot] != mig.To {
		t.Errorf("owner[%d] = %d after migration to %d", hot, owner[hot], mig.To)
	}

	// The hot stream's book partitions across both shards: frames
	// before the move on the source, frames after on the target.
	src := res.PerShard[mig.From].Result.PerStream[hot]
	dst := res.PerShard[mig.To].Result.PerStream[hot]
	if src.Arrived == 0 || dst.Arrived == 0 {
		t.Errorf("hot stream not partitioned: source saw %d, target saw %d", src.Arrived, dst.Arrived)
	}
	merged := res.PerStream[hot]
	if merged.Arrived != src.Arrived+dst.Arrived || merged.Served != src.Served+dst.Served {
		t.Errorf("merged hot row (%d/%d) != source+target (%d/%d)",
			merged.Served, merged.Arrived, src.Served+dst.Served, src.Arrived+dst.Arrived)
	}
	for i, row := range res.PerStream {
		sum := 0
		for _, b := range res.PerShard {
			sum += b.Result.PerStream[i].Served
		}
		if row.Served != sum {
			t.Errorf("stream %d merged served %d != shard sum %d", i, row.Served, sum)
		}
	}

	// Live Stats after the drain agree with the merged Result (its
	// fleet row is pinned by TestStatsMatchResult).
	st := r.Stats()
	if st.QueueDepth != 0 || st.BusyExecutors != 0 {
		t.Errorf("drained cluster still busy: %+v", st)
	}
	if st.Migrations != res.Migrations {
		t.Errorf("Stats.Migrations = %d, Result says %d", st.Migrations, res.Migrations)
	}
}

// TestStatsMatchResult pins the live snapshot to the merged books:
// after Drain, Router.Stats' fleet row equals Result.Fleet in every
// counter, throughput and drop rate (the latency differs by design: the
// snapshot's covers the sliding window), and its clock equals the
// makespan — on a fault-free cluster with migration and autoscaling
// live, and under each failover policy, where a replayed frame arrives
// on two shards but must count once.
func TestStatsMatchResult(t *testing.T) {
	faultFree := everythingOn()
	faultFree.Shards = 3
	scenarios := map[string]Config{"fault-free": faultFree}
	for _, policy := range []FailoverPolicy{FailoverReplay, FailoverDrop, FailoverDegrade} {
		scenarios[string(policy)] = faultCluster(2, policy)
	}
	for name, cfg := range scenarios {
		t.Run(name, func(t *testing.T) {
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for _, a := range serve.Schedule(r.cfg.Base) {
				if err := r.Submit(a.Stream, a.Frame, a.At); err != nil {
					t.Fatal(err)
				}
			}
			res, err := r.Drain(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			st := r.Stats()
			got, want := st.Fleet, res.Fleet
			got.Latency, want.Latency = serve.LatencySummary{}, serve.LatencySummary{}
			if got != want {
				t.Errorf("Stats fleet %+v\n!= Result fleet %+v", got, want)
			}
			if st.Now != res.LastEventAt {
				t.Errorf("Stats clock %v != Result makespan %v", st.Now, res.LastEventAt)
			}
		})
	}
}

// TestRouterStatsAllocs pins the allocations of a live Router.Stats
// on a warm two-shard cluster: 4, the per-shard queue slice, each
// shard's Stats (its per-stream queue copy) and the sorted copy of the
// router's own latency ring. The parent of the change that moved the
// per-stream windows out of serve.Stats measured 16 here, 10 of them
// building window summaries the cluster never reads.
func TestRouterStatsAllocs(t *testing.T) {
	r, err := New(faultCluster(2, FailoverReplay))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, a := range serve.Schedule(r.cfg.Base) {
		if err := r.Submit(a.Stream, a.Frame, a.At); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(100, func() { r.Stats() }); a > 4 {
		t.Errorf("Router.Stats allocates %v times, want at most 4", a)
	}
}

// TestHopLatencyCharged pins the cross-node tax: a stream served off
// its hash home arrives later by exactly HopLatency, so a forced
// off-home cluster serves every frame no earlier than the on-home one.
func TestHopLatencyCharged(t *testing.T) {
	base := baseConfig()
	base.Arrivals = serve.FixedFPS
	// The 1.25 load factor caps each of the two shards at
	// floor(1.25*ceil(streams/2)) streams; pick the smallest stream
	// count whose (deterministic) hash placement actually overflows
	// the cap, so an off-home stream pays the hop.
	offHome := false
	for n := 2; n <= 8 && !offHome; n++ {
		base.Streams = n
		router, err := New(Config{Base: base, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		home, owner := router.Placement()
		router.Close()
		for i := range home {
			if home[i] != owner[i] {
				offHome = true
			}
		}
	}
	if !offHome {
		t.Fatal("no stream count up to 8 overflowed the cap — placement override is dead code")
	}
	run := func(hop float64) *Result {
		return mustRun(t, Config{Base: base, Shards: 2, HopLatency: hop})
	}
	cheap, taxed := run(1e-9), run(0.5)
	if cheap.Fleet.Arrived != taxed.Fleet.Arrived {
		t.Fatalf("hop changed offered load: %d vs %d", cheap.Fleet.Arrived, taxed.Fleet.Arrived)
	}
	if taxed.LastEventAt <= cheap.LastEventAt {
		t.Errorf("0.5s hop did not extend the makespan: %v vs %v", taxed.LastEventAt, cheap.LastEventAt)
	}
}

// TestElasticBeatsStatic is the autoscaler's economic acceptance: under
// synchronized bursty load there is a scenario where the elastic
// cluster beats every static executor count on served frames per
// modeled dollar — idle gaps are parked at Min=0 instead of rented.
func TestElasticBeatsStatic(t *testing.T) {
	base := baseConfig()
	base.Arrivals = serve.Burst
	base.BurstPeriod = 4
	base.BurstDuty = 0.125
	base.Duration = 12
	base.QueueCap = 256
	mk := func(execs int, elastic bool) Config {
		b := base
		b.Executors = execs
		cfg := Config{Base: b, Shards: 2}
		if elastic {
			cfg.Autoscale = Autoscale{Enabled: true, Min: 0, Max: 2, Interval: 0.25, UpQueue: 4, DownIdle: 1}
		}
		return cfg
	}
	elastic := mustRun(t, mk(1, true))
	if elastic.ServedPerDollar <= 0 {
		t.Fatalf("elastic cluster has no economics: %+v", elastic.Fleet)
	}
	for _, execs := range []int{1, 2, 3, 4} {
		static := mustRun(t, mk(execs, false))
		if static.ServedPerDollar >= elastic.ServedPerDollar {
			t.Errorf("static %d executors/shard: %.1f served/$ >= elastic %.1f served/$",
				execs, static.ServedPerDollar, elastic.ServedPerDollar)
		}
		// Apples to apples: nobody may shed load to win the ratio.
		if static.Fleet.DroppedQueue+static.Fleet.DroppedStale > 0 || elastic.Fleet.DroppedQueue+elastic.Fleet.DroppedStale > 0 {
			t.Errorf("drops under static %d: static %d, elastic %d", execs,
				static.Fleet.DroppedQueue+static.Fleet.DroppedStale,
				elastic.Fleet.DroppedQueue+elastic.Fleet.DroppedStale)
		}
	}
	if elastic.Resizes < 2 {
		t.Errorf("elastic run resized only %d times — the autoscaler never breathed", elastic.Resizes)
	}
}

// TestClusterValidation pins the field-path errors of the cluster
// config surface.
func TestClusterValidation(t *testing.T) {
	bad := []Config{
		{Base: baseConfig(), GPUTiers: []string{"tpu"}},
		{Base: baseConfig(), Shards: 3, GPUTiers: []string{"titanx", "v100"}},
		{Base: baseConfig(), HopLatency: -1},
		{Base: baseConfig(), HopLatency: math.NaN()},
		{Base: baseConfig(), HopLatency: math.Inf(1)},
		{Base: baseConfig(), Autoscale: Autoscale{Enabled: true, Interval: math.NaN()}},
		{Base: baseConfig(), Autoscale: Autoscale{Enabled: true, P99: math.NaN()}},
		{Base: baseConfig(), Migration: Migration{QueueDepth: 2}, Autoscale: Autoscale{Interval: math.Inf(1)}},
		{Base: baseConfig(), Autoscale: Autoscale{Enabled: true, Min: 5, Max: 2}},
		{Base: baseConfig(), Migration: Migration{QueueDepth: 2, MinGain: -1}},
		{Base: serve.Config{}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, cfg)
		}
	}
	// Migration knobs carry their field path, armed or not: a NaN
	// cooldown would disarm the anti-flap bound and make the merged
	// Result unencodable.
	migration := []struct {
		m     Migration
		field string
	}{
		{Migration{QueueDepth: 2, Cooldown: math.NaN()}, "Migration.Cooldown"},
		{Migration{QueueDepth: 2, Cooldown: math.Inf(1)}, "Migration.Cooldown"},
		{Migration{Cooldown: math.NaN()}, "Migration.Cooldown"},
		{Migration{MinGain: -1}, "Migration.MinGain"},
		{Migration{QueueDepth: -1}, "Migration.QueueDepth"},
	}
	for _, tc := range migration {
		err := Config{Base: baseConfig(), Migration: tc.m}.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Migration %+v: error %v, want one naming %s", tc.m, err, tc.field)
		}
	}
	// Every tier's timing model is validated: the base model's own
	// check runs under Base, and a slow tier can overflow a huge but
	// finite launch overhead.
	huge := gpumodel.Default()
	huge.LaunchOverhead = 1e308
	nan := gpumodel.Default()
	nan.Alpha = math.NaN()
	withGPU := func(m gpumodel.Model) serve.Config {
		b := baseConfig()
		b.GPU = &m
		return b
	}
	tiered := []struct {
		cfg   Config
		field string
	}{
		{Config{Base: withGPU(nan)}, "serve/cluster: Base: serve: GPU.Alpha"},
		{Config{Base: withGPU(huge), Shards: 1, GPUTiers: []string{"k80"}}, "serve/cluster: GPUTiers[0]: k80 model: LaunchOverhead"},
		{Config{Base: withGPU(huge), Faults: FaultPlan{Faults: []Fault{{Time: 1, Kind: FaultAddShard, Tier: "k80"}}}},
			"serve/cluster: Faults.Faults[0].Tier: k80 model: LaunchOverhead"},
	}
	for _, tc := range tiered {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("error %v, want one naming %s", err, tc.field)
		}
	}
	if err := (Config{Base: withGPU(huge)}).Validate(); err != nil {
		t.Errorf("a huge overhead on the reference tier is still finite, but was rejected: %v", err)
	}
	if err := (Config{Base: baseConfig()}).Validate(); err != nil {
		t.Errorf("default cluster config rejected: %v", err)
	}
}

// adaptiveCluster is the kitchen-sink scenario with per-shard adaptive
// controllers live on top of migration and autoscaling: each shard runs
// its own baseline controller over the streams it currently owns.
func adaptiveCluster() Config {
	cfg := everythingOn()
	cfg.Base.FPS = 30
	cfg.Base.Control = control.Config{
		Kind:     control.KindBaseline,
		Interval: 0.1, Cooldown: 0.1,
		HighDepth: 2, LowDepth: 1,
		HighP99: 2.5, LowP99: 1.6,
		MaxBatch: 4, BatchDepth: 8,
	}
	return cfg
}

// TestClusterAdaptiveDeterminism extends the cluster determinism
// contract to the adaptive control plane: with per-shard baseline
// controllers shedding under a bursty overload, the merged books stay
// byte-identical across reruns and Base.StepWorkers at every shard
// count, and the merged result reports the summed controller activity.
func TestClusterAdaptiveDeterminism(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var golden []byte
			var first *Result
			for _, workers := range []int{1, 4, 1} { // trailing 1 = rerun
				cfg := adaptiveCluster()
				cfg.Shards = shards
				cfg.GPUTiers = []string{"titanx", "v100"}[:shards]
				cfg.Base.StepWorkers = workers
				r := mustRun(t, cfg)
				b := marshal(t, r)
				if golden == nil {
					golden, first = b, r
				} else if !bytes.Equal(golden, b) {
					t.Fatalf("adaptive books diverge at StepWorkers=%d", workers)
				}
			}
			if first.ControlTicks == 0 {
				t.Error("adaptive cluster merged zero control ticks")
			}
			for _, b := range first.PerShard {
				if b.Result.Control == nil {
					t.Errorf("shard %d book missing its control echo", b.Shard)
				}
			}
		})
	}
}

// TestSubmitNonFiniteArrival pins that a poison pill goes to its owner
// shard's poison policy: a +Inf arrival is no control horizon, and a
// negative frame submitted during a whole-cluster outage (the one
// shard killed at t=1) is not parked as an orphan. Submit returns,
// with an error under PoisonError and as a dropped pill under
// PoisonDrop. It runs Submit on a goroutine so a regression fails fast
// instead of hanging the package; on that path the Router is left
// unclosed, since Close would wait for the spinning Submit's lock.
func TestSubmitNonFiniteArrival(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy serve.PoisonPolicy
		outage bool
		frame  int
		at     float64
	}{
		{"error", serve.PoisonError, false, 0, math.Inf(1)},
		{"drop", serve.PoisonDrop, false, 0, math.Inf(1)},
		{"outage-error", serve.PoisonError, true, -1, 1.5},
		{"outage-drop", serve.PoisonDrop, true, -1, 1.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Base: baseConfig(), Shards: 2, Migration: Migration{QueueDepth: 2}}
			if tc.outage {
				cfg = faultCluster(1, FailoverReplay)
			}
			cfg.Base.Poison = tc.policy
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- r.Submit(0, tc.frame, tc.at) }()
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("Submit(0, %d, %v) did not return", tc.frame, tc.at)
			}
			defer r.Close()
			if tc.policy == serve.PoisonError {
				if err == nil {
					t.Fatalf("Submit(0, %d, %v) under PoisonError returned nil", tc.frame, tc.at)
				}
				return
			}
			if err != nil {
				t.Fatalf("Submit(0, %d, %v) under PoisonDrop: %v", tc.frame, tc.at, err)
			}
			st := r.Stats()
			if st.Fleet.DroppedPoison != 1 || st.Orphaned != 0 {
				t.Fatalf("DroppedPoison = %d, Orphaned = %d, want 1, 0", st.Fleet.DroppedPoison, st.Orphaned)
			}
			if tc.outage && st.DeadShards != 1 {
				t.Fatalf("DeadShards = %d, want the outage's 1", st.DeadShards)
			}
		})
	}
}
