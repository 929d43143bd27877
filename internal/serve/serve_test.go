package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/serve/sched"
	"repro/internal/sim"
	"repro/internal/video"
)

// testConfig is a small CaTDet scenario on the mini world; tests tweak
// the returned copy.
func testConfig() Config {
	return Config{
		Spec: sim.SystemSpec{
			Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50",
			Cfg: core.DefaultConfig(),
		},
		Preset:   video.MiniKITTIPreset(),
		Seed:     1,
		Streams:  4,
		FPS:      15,
		Arrivals: Poisson,
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

// timeOrder is a recording sink that counts events emitted with a Time
// earlier than one already seen, pinning the Event contract that sink
// events arrive in nondecreasing virtual time.
type timeOrder struct {
	last        float64
	events, out int
}

func (o *timeOrder) ServeEvent(e Event) {
	o.events++
	if e.Time < o.last {
		o.out++
		return
	}
	o.last = e.Time
}

// TestDeterminism reruns the same scenario under every scheduler, at
// 1, 2 and 8 executors, at batch sizes 1 and 4, and at step-worker
// counts 1, 2 and 8, and requires byte-identical JSON each time: no
// policy's event loop has hidden scheduling, wall-clock or map-order
// dependence, and the parallel step fan-out merges back into exactly
// the serial engine's output (workers=1 is the fully serial path the
// golden files pin). The serial run also records its sink events,
// which must never go back in virtual time.
func TestDeterminism(t *testing.T) {
	for _, kind := range []sched.Kind{sched.FIFO, sched.Fair, sched.Priority, sched.EDF} {
		for _, executors := range []int{1, 2, 8} {
			for _, batch := range []int{1, 4} {
				cfg := testConfig()
				cfg.Scheduler = kind
				cfg.Executors = executors
				cfg.BatchSize = batch
				cfg.MaxStaleness = 0.4
				if kind == sched.Priority {
					cfg.Priorities = []int{1, 0, 1, 0}
				}
				cfg.StepWorkers = 1
				order := &timeOrder{}
				cfg.Sink = order
				first := marshal(t, mustRun(t, cfg))
				cfg.Sink = nil
				if order.out > 0 {
					t.Errorf("sched=%s executors=%d batch=%d: %d of %d sink events went back in time",
						kind, executors, batch, order.out, order.events)
				}
				again := marshal(t, mustRun(t, cfg))
				if !bytes.Equal(first, again) {
					t.Errorf("sched=%s executors=%d batch=%d: rerun not byte-identical\n first: %s\nsecond: %s",
						kind, executors, batch, first, again)
				}
				for _, workers := range []int{2, 8} {
					cfg.StepWorkers = workers
					par := marshal(t, mustRun(t, cfg))
					if !bytes.Equal(first, par) {
						t.Errorf("sched=%s executors=%d batch=%d: StepWorkers=%d not byte-identical to serial\nserial:   %s\nparallel: %s",
							kind, executors, batch, workers, first, par)
					}
				}
			}
		}
	}
}

// TestMoreExecutorsServeNoLess sanity-checks the fleet axis: adding
// executors to an overloaded fleet cannot reduce the served count.
func TestMoreExecutorsServeNoLess(t *testing.T) {
	cfg := testConfig()
	cfg.Executors = 1
	one := mustRun(t, cfg)
	cfg.Executors = 4
	four := mustRun(t, cfg)
	if four.Fleet.Served < one.Fleet.Served {
		t.Errorf("served fell from %d to %d when executors went 1 -> 4",
			one.Fleet.Served, four.Fleet.Served)
	}
	if one.Fleet.Arrived != four.Fleet.Arrived {
		t.Errorf("offered load changed with executors: %d vs %d arrivals",
			one.Fleet.Arrived, four.Fleet.Arrived)
	}
}

// TestOverloadDropBoundedTail overloads one executor far past capacity
// and asserts the backpressure policies engage: frames drop, the queue
// respects its cap, and p99 stays bounded by staleness + one service.
func TestOverloadDropBoundedTail(t *testing.T) {
	cfg := testConfig()
	cfg.Streams = 6
	cfg.FPS = 30
	cfg.Executors = 1
	cfg.QueueCap = 4
	cfg.MaxStaleness = 0.3
	one := mustRun(t, cfg)

	if one.Fleet.DroppedQueue == 0 {
		t.Error("overload did not engage the queue drop policy")
	}
	if one.Fleet.DropRate <= 0 {
		t.Errorf("drop rate %v under 6x30fps on one executor", one.Fleet.DropRate)
	}
	if one.MaxQueueDepth > cfg.QueueCap+1 {
		t.Errorf("queue depth %d exceeded cap %d", one.MaxQueueDepth, cfg.QueueCap)
	}
	// A served frame waits at most MaxStaleness (else it is skipped at
	// admission) and then runs for at most MaxService.
	bound := cfg.MaxStaleness + one.MaxService + 1e-9
	if one.Fleet.Latency.P99 > bound {
		t.Errorf("p99 %v not bounded by staleness+service %v", one.Fleet.Latency.P99, bound)
	}
	if one.Fleet.Latency.Max > bound {
		t.Errorf("max latency %v not bounded by staleness+service %v", one.Fleet.Latency.Max, bound)
	}
}

// TestDropNewestRespectsCap checks the tail-drop variant: the queue
// never grows past its cap and drops are charged to arriving frames.
func TestDropNewestRespectsCap(t *testing.T) {
	cfg := testConfig()
	cfg.Streams = 6
	cfg.FPS = 30
	cfg.Executors = 1
	cfg.QueueCap = 2
	cfg.Drop = DropNewest
	r := mustRun(t, cfg)
	if r.MaxQueueDepth > cfg.QueueCap+1 {
		t.Errorf("queue depth %d exceeded cap %d", r.MaxQueueDepth, cfg.QueueCap)
	}
	if r.Fleet.DroppedQueue == 0 {
		t.Error("tail drop never engaged under overload")
	}
}

// TestDegradeShedsLoad checks the proposal-only degraded mode: under
// overload it engages, and shedding the refinement pass lets the fleet
// serve strictly more frames than the same scenario without it.
func TestDegradeShedsLoad(t *testing.T) {
	cfg := testConfig()
	cfg.Streams = 6
	cfg.FPS = 30
	cfg.Executors = 1
	cfg.QueueCap = 8
	full := mustRun(t, cfg)
	cfg.DegradeDepth = 2
	degraded := mustRun(t, cfg)

	if degraded.Fleet.Degraded == 0 {
		t.Fatal("degrade policy never engaged under overload")
	}
	if degraded.Fleet.Served <= full.Fleet.Served {
		t.Errorf("degraded fleet served %d <= full fleet %d",
			degraded.Fleet.Served, full.Fleet.Served)
	}
}

// TestSingleModelCostsMore compares CaTDet against the single Res50
// model under the same light load: the cascade's p50 must undercut the
// single model's, which is the serving-layer restatement of Table 7.
func TestSingleModelCostsMore(t *testing.T) {
	cfg := testConfig()
	cfg.Streams = 1
	cfg.FPS = 2 // light load: latency ~ service time
	cat := mustRun(t, cfg)

	cfg.Spec = sim.SystemSpec{Kind: sim.Single, Refinement: "resnet50"}
	single := mustRun(t, cfg)

	if single.Fleet.Degraded != 0 {
		t.Errorf("single-model stream reported %d degraded frames; degrade must not apply", single.Fleet.Degraded)
	}
	if cat.Fleet.Latency.P50 >= single.Fleet.Latency.P50 {
		t.Errorf("CaTDet p50 %v not below single-model p50 %v",
			cat.Fleet.Latency.P50, single.Fleet.Latency.P50)
	}
}

// TestArrivalScheduleIndependentOfFleet pins the open-loop property:
// policies and executors never change the offered load.
func TestArrivalScheduleIndependentOfFleet(t *testing.T) {
	cfg := testConfig()
	cfg.Executors = 1
	base := mustRun(t, cfg)
	cfg.Executors = 8
	cfg.QueueCap = 1
	cfg.MaxStaleness = 0.01
	cfg.DegradeDepth = 1
	stressed := mustRun(t, cfg)
	for i := range base.PerStream {
		if base.PerStream[i].Arrived != stressed.PerStream[i].Arrived {
			t.Errorf("stream %d offered load changed: %d vs %d",
				i, base.PerStream[i].Arrived, stressed.PerStream[i].Arrived)
		}
	}
}

// TestMetricHorizon pins the one-horizon semantics this PR fixes: in
// an overloaded fleet whose drain extends well past Duration, every
// time-averaged metric — throughput, average queue depth, utilization
// — is normalized over the makespan (LastEventAt), not over the
// offered-load window.
func TestMetricHorizon(t *testing.T) {
	cfg := testConfig()
	cfg.Streams = 6
	cfg.FPS = 30
	cfg.Executors = 1
	cfg.QueueCap = -1 // unbounded: the queue drains long after load ends
	r := mustRun(t, cfg)

	if r.LastEventAt <= r.Duration {
		t.Fatalf("drain did not extend past Duration: makespan %v <= %v (scenario not overloaded?)",
			r.LastEventAt, r.Duration)
	}
	wantTput := float64(r.Fleet.Served) / r.LastEventAt
	if r.Fleet.Throughput != wantTput {
		t.Errorf("fleet throughput %v != served/makespan %v", r.Fleet.Throughput, wantTput)
	}
	for _, st := range r.PerStream {
		if want := float64(st.Served) / r.LastEventAt; st.Throughput != want {
			t.Errorf("%s throughput %v != served/makespan %v", st.ID, st.Throughput, want)
		}
	}
	// One executor saturated for (almost) the whole makespan: the busy
	// integral over the same horizon must be near 1, and can never
	// exceed it. (Under the old Duration-based horizon this quantity
	// was inconsistent with throughput by the drain factor.)
	if r.Utilization > 1 || r.Utilization < 0.9 {
		t.Errorf("utilization %v outside (0.9, 1] for a saturated executor over the makespan", r.Utilization)
	}
	if r.AvgQueueDepth <= 0 {
		t.Errorf("avg queue depth %v not positive under overload", r.AvgQueueDepth)
	}
}

// TestFairBoundsStarvation drives one hot Poisson stream against five
// quiet ones on a saturated two-executor fleet. Under the shared FIFO
// the hot stream's frames flood the queue and the quiet streams starve
// along with it; fair gives each stream its round-robin share and
// evicts from the longest (hot) backlog, so every quiet stream keeps a
// strictly lower drop rate and the hot stream absorbs its own burst.
// (The hot stream's world is generated at its own 60 fps rate — the
// per-stream recalibration this PR adds — so its frame content matches
// its cadence.)
func TestFairBoundsStarvation(t *testing.T) {
	cfg := testConfig()
	cfg.Streams = 6
	cfg.FPS = 12
	cfg.StreamFPS = []float64{60, 12, 12, 12, 12, 12}
	cfg.Executors = 2
	cfg.Duration = 10
	cfg.MaxStaleness = 0.8

	cfg.Scheduler = sched.FIFO
	fifo := mustRun(t, cfg)
	cfg.Scheduler = sched.Fair
	fair := mustRun(t, cfg)

	if fifo.Fleet.Arrived != fair.Fleet.Arrived {
		t.Fatalf("offered load changed with the scheduler: %d vs %d", fifo.Fleet.Arrived, fair.Fleet.Arrived)
	}
	if fair.PerStream[0].DropRate <= fifo.PerStream[0].DropRate {
		t.Errorf("hot stream drop rate %v under fair not above fifo's %v (burst not absorbed by the burster)",
			fair.PerStream[0].DropRate, fifo.PerStream[0].DropRate)
	}
	for s := 1; s < cfg.Streams; s++ {
		if fair.PerStream[s].DropRate >= fifo.PerStream[s].DropRate {
			t.Errorf("quiet stream %d: fair drop rate %v not below fifo's %v",
				s, fair.PerStream[s].DropRate, fifo.PerStream[s].DropRate)
		}
	}
}

// TestFairReducesDropSpread pins the acceptance scenario: equal-rate
// bursty Poisson streams overloading one executor. FIFO sheds by queue
// luck, so per-stream drop rates scatter; fair's round-robin service
// plus longest-queue eviction is a feedback equalizer, and the max-min
// drop-rate spread contracts.
func TestFairReducesDropSpread(t *testing.T) {
	cfg := testConfig()
	cfg.Streams = 6
	cfg.FPS = 20
	cfg.Executors = 1
	cfg.Duration = 10
	cfg.MaxStaleness = 0.4

	cfg.Scheduler = sched.FIFO
	fifo := mustRun(t, cfg)
	cfg.Scheduler = sched.Fair
	fair := mustRun(t, cfg)

	if fair.DropSpread() >= fifo.DropSpread() {
		t.Errorf("fair drop-rate spread %v not below fifo's %v", fair.DropSpread(), fifo.DropSpread())
	}
}

// TestEDFDropsFewerStale compares EDF against FIFO under tail drop at
// equal load: FIFO keeps doomed head-of-line frames that expire as
// stale drops at admission, while EDF's overflow evicts the earliest
// deadline — the frame nearest expiry — so far fewer frames rot in the
// queue.
func TestEDFDropsFewerStale(t *testing.T) {
	cfg := testConfig()
	cfg.Streams = 6
	cfg.FPS = 20
	cfg.Executors = 1
	cfg.Duration = 8
	cfg.QueueCap = 12
	cfg.MaxStaleness = 0.25
	cfg.Drop = DropNewest

	cfg.Scheduler = sched.FIFO
	fifo := mustRun(t, cfg)
	cfg.Scheduler = sched.EDF
	edf := mustRun(t, cfg)

	if fifo.Fleet.Arrived != edf.Fleet.Arrived {
		t.Fatalf("offered load changed with the scheduler: %d vs %d", fifo.Fleet.Arrived, edf.Fleet.Arrived)
	}
	if fifo.Fleet.DroppedStale == 0 {
		t.Fatal("scenario never engaged the stale skip under fifo; it cannot discriminate")
	}
	if edf.Fleet.DroppedStale >= fifo.Fleet.DroppedStale {
		t.Errorf("EDF dropped %d stale frames, fifo %d; EDF must drop fewer at equal load",
			edf.Fleet.DroppedStale, fifo.Fleet.DroppedStale)
	}
}

// TestPriorityProtectsHighClass checks the priority scheduler under
// overload: per-class stats are emitted, the classes partition the
// fleet, and the high class keeps a lower drop rate than the low one.
func TestPriorityProtectsHighClass(t *testing.T) {
	cfg := testConfig()
	cfg.Streams = 6
	cfg.FPS = 20
	cfg.Executors = 1
	cfg.Duration = 6
	cfg.MaxStaleness = 0.4
	cfg.Scheduler = sched.Priority
	cfg.Priorities = []int{1, 1, 1, 0, 0, 0}
	r := mustRun(t, cfg)

	if len(r.PerClass) != 2 {
		t.Fatalf("PerClass has %d rows, want 2", len(r.PerClass))
	}
	hi, lo := r.PerClass[0], r.PerClass[1]
	if hi.ID != "class-1" || lo.ID != "class-0" {
		t.Fatalf("PerClass order %q, %q; want class-1 then class-0", hi.ID, lo.ID)
	}
	if hi.Arrived+lo.Arrived != r.Fleet.Arrived || hi.Served+lo.Served != r.Fleet.Served {
		t.Errorf("classes do not partition the fleet: %d+%d arrived vs %d, %d+%d served vs %d",
			hi.Arrived, lo.Arrived, r.Fleet.Arrived, hi.Served, lo.Served, r.Fleet.Served)
	}
	if hi.DropRate >= lo.DropRate {
		t.Errorf("high class drop rate %v not below low class %v under overload", hi.DropRate, lo.DropRate)
	}

	// Non-priority schedulers never emit per-class rows.
	cfg.Scheduler = sched.FIFO
	if r := mustRun(t, cfg); len(r.PerClass) != 0 {
		t.Errorf("fifo emitted %d per-class rows", len(r.PerClass))
	}
}

// TestBatchingIncreasesThroughput pins the acceptance scenario: on an
// overloaded fleet, fusing four frames per launch amortizes the
// per-launch constant b and the fleet strictly serves more frames —
// the cross-frame counterpart of the appendix's region merging.
func TestBatchingIncreasesThroughput(t *testing.T) {
	cfg := testConfig()
	cfg.Streams = 6
	cfg.FPS = 30
	cfg.Executors = 1
	cfg.QueueCap = 8
	one := mustRun(t, cfg)
	cfg.BatchSize = 4
	four := mustRun(t, cfg)

	if one.Fleet.Arrived != four.Fleet.Arrived {
		t.Fatalf("offered load changed with batch size: %d vs %d", one.Fleet.Arrived, four.Fleet.Arrived)
	}
	if four.Fleet.Served <= one.Fleet.Served {
		t.Errorf("batch=4 served %d <= batch=1 served %d", four.Fleet.Served, one.Fleet.Served)
	}
	if four.Fleet.Throughput <= one.Fleet.Throughput {
		t.Errorf("batch=4 throughput %v <= batch=1 throughput %v", four.Fleet.Throughput, one.Fleet.Throughput)
	}
	if four.Batches >= four.Fleet.Served {
		t.Errorf("batch=4 made %d launches for %d served frames; frames were not fused", four.Batches, four.Fleet.Served)
	}
	if one.Batches != one.Fleet.Served {
		t.Errorf("batch=1 made %d launches for %d served frames; must be one per frame", one.Batches, one.Fleet.Served)
	}
}

// TestStreamFPSValidation rejects malformed per-stream rates.
func TestStreamFPSValidation(t *testing.T) {
	cfg := testConfig()
	cfg.StreamFPS = []float64{10, 10}
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted StreamFPS with the wrong length")
	}
	cfg = testConfig()
	cfg.StreamFPS = []float64{10, 10, -1, 10}
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted a non-positive per-stream rate")
	}
	cfg = testConfig()
	cfg.Priorities = []int{1}
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted Priorities with the wrong length")
	}
	cfg = testConfig()
	cfg.Scheduler = "lifo"
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted an unknown scheduler")
	}
}

// TestConfigValidation rejects the invalid corners.
func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("Run accepted a zero Config without a system spec")
	}
	cfg := testConfig()
	cfg.Arrivals = "bursty"
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted an unknown arrival process")
	}
	cfg = testConfig()
	cfg.Drop = "drop-random"
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted an unknown drop policy")
	}
	cfg = testConfig()
	cfg.Spec.Refinement = "no-such-model"
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted an unknown refinement model")
	}
}
