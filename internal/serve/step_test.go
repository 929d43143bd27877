package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/gpumodel"
	"repro/internal/ops"
	"repro/internal/serve/sched"
)

// TestLookaheadBound pins the lemma the pipelined step rests on: no
// price the fleet can produce for an n-frame launch undercuts the
// launch's minService(n), so a launch's completion never lands before
// its price marker. Seeded random models (the default, every GPU tier,
// and random non-negative parameters, zeros included) price random
// proposal workloads, refinement regions and RoI counts through every
// per-frame pricing form, and fused launches of 1–8 and 64 frames
// through BatchFrames.
func TestLookaheadBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	models := []gpumodel.Model{gpumodel.Default(), {}}
	for _, name := range gpumodel.TierNames() {
		tier, err := gpumodel.TierByName(name)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, tier.Model())
	}
	pick := func(scale float64) float64 {
		if rng.Intn(8) == 0 {
			return 0
		}
		return rng.Float64() * scale
	}
	for i := 0; i < 16; i++ {
		models = append(models, gpumodel.Model{
			Alpha: pick(1e-12), LaunchOverhead: pick(1e-2),
			CPUOverheadSingle: pick(0.1), CPUOverheadCaTDet: pick(0.1),
		})
	}
	var costs []ops.CostModel
	for _, name := range []string{"resnet50", "vgg16", "retinanet-res50"} {
		c, err := ops.NewCostModel(name)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, c)
	}
	sizes := [][2]float64{{ops.KITTIWidth, ops.KITTIHeight}, {ops.CityPersonsWidth, ops.CityPersonsHeight}, {0, 0}}

	check := func(m gpumodel.Model, cascade bool, n int, what string, price float64) {
		t.Helper()
		lb := newLaunchBound(m, cascade).minService(n)
		if !(price >= lb) {
			t.Fatalf("%+v cascade=%v: %d-frame %s price %v below minService %v", m, cascade, n, what, price, lb)
		}
		now := rng.Float64() * 1e4
		if !(now+price >= now+lb) {
			t.Fatalf("%+v: now %v + %d-frame %s price %v lands before now + minService %v", m, now, n, what, price, lb)
		}
	}
	launchSizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 64}
	for _, m := range models {
		// A single-frame launch keeps the one-frame lookahead bit for
		// bit; a fused one adds a CPU overhead per frame.
		if newLaunchBound(m, true).minService(1) != m.LaunchOverhead+m.CPUOverheadCaTDet ||
			newLaunchBound(m, false).minService(1) != m.LaunchOverhead+m.CPUOverheadSingle {
			t.Fatalf("%+v: a valid model lost its lookahead", m)
		}
		if got, want := newLaunchBound(m, true).minService(8), m.LaunchOverhead+m.CPUOverheadCaTDet*8; got != want {
			t.Fatalf("%+v: 8-frame lookahead %v, want b + 8·cpu = %v", m, got, want)
		}
		for trial := 0; trial < 200; trial++ {
			cost := costs[rng.Intn(len(costs))]
			wh := sizes[rng.Intn(len(sizes))]
			regions := make([]geom.Box, rng.Intn(40))
			for r := range regions {
				x, y := rng.Float64()*wh[0], rng.Float64()*wh[1]
				regions[r] = geom.NewBox(x, y, x+rng.Float64()*300, y+rng.Float64()*200)
			}
			rois := rng.Intn(300)
			prop := pick(5e10)
			check(m, true, 1, "CaTDetFrame", m.CaTDetFrame(prop, regions, wh[0], wh[1], cost, rois).Total)
			check(m, true, 1, "FullCascadeFrame",
				m.FullCascadeFrame(prop, cost.RegionOps(int(wh[0]), int(wh[1]), 1, rois)).Total)
			check(m, true, 1, "ProposalOnlyFrame", m.ProposalOnlyFrame(prop).Total)
			check(m, false, 1, "SingleModelFrame", m.SingleModelFrame(pick(3e11)).Total)
			for _, n := range launchSizes {
				works := make([]float64, n)
				for k := range works {
					works[k] = pick(3e11)
				}
				check(m, true, n, "BatchFrames", m.BatchFrames(works, m.CPUOverheadCaTDet).Total)
				check(m, false, n, "BatchFrames", m.BatchFrames(works, m.CPUOverheadSingle).Total)
			}
		}
	}
}

// TestLookaheadFallback pins the models outside the lemma's premises —
// a negative or NaN Alpha, launch overhead or CPU overhead, or an
// infinite one — to a Validate error carrying the model's field path,
// so they never reach a run. The one valid model without a lookahead,
// all parameters zero, prices every launch by a marker at its dispatch
// instant: its books and sink events are byte-identical at every
// StepWorkers.
func TestLookaheadFallback(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	def := gpumodel.Default()
	bad := map[string]struct {
		spoil func(*gpumodel.Model)
		field string
	}{
		"alpha<0":   {func(m *gpumodel.Model) { m.Alpha = -1e-13 }, "GPU.Alpha"},
		"alpha=NaN": {func(m *gpumodel.Model) { m.Alpha = nan }, "GPU.Alpha"},
		"b<0":       {func(m *gpumodel.Model) { m.LaunchOverhead = -0.01 }, "GPU.LaunchOverhead"},
		"b=NaN":     {func(m *gpumodel.Model) { m.LaunchOverhead = nan }, "GPU.LaunchOverhead"},
		"b=+Inf":    {func(m *gpumodel.Model) { m.LaunchOverhead = inf }, "GPU.LaunchOverhead"},
		"cpu<0":     {func(m *gpumodel.Model) { m.CPUOverheadCaTDet = -0.02 }, "GPU.CPUOverheadCaTDet"},
		"cpu=NaN":   {func(m *gpumodel.Model) { m.CPUOverheadCaTDet = nan }, "GPU.CPUOverheadCaTDet"},
	}
	for name, tc := range bad {
		t.Run(name, func(t *testing.T) {
			m := def
			tc.spoil(&m)
			cfg := goldenConfig()
			cfg.GPU = &m
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), "serve: "+tc.field+":") {
				t.Fatalf("Validate error %v, want one naming %s", err, tc.field)
			}
			if _, err := New(cfg); err == nil {
				t.Fatal("New accepted a model Validate rejects")
			}
		})
	}
	t.Run("zero", func(t *testing.T) {
		var m gpumodel.Model
		for _, n := range []int{1, 8} {
			if ms := newLaunchBound(m, true).minService(n); ms != 0 {
				t.Fatalf("%d-frame minService %v, want 0", n, ms)
			}
		}
		run := func(workers int) (string, []Event) {
			cfg := goldenConfig()
			cfg.Executors = 2
			cfg.BatchSize = 2
			cfg.GPU = &m
			cfg.StepWorkers = workers
			log := &eventLog{}
			cfg.Sink = log
			return string(marshal(t, mustRun(t, cfg))), log.events
		}
		serial, serialEvents := run(1)
		for _, workers := range []int{2, 4} {
			par, parEvents := run(workers)
			if par != serial {
				t.Errorf("StepWorkers=%d books differ from serial\nserial:   %s\nparallel: %s", workers, serial, par)
			}
			if fmt.Sprint(parEvents) != fmt.Sprint(serialEvents) {
				t.Errorf("StepWorkers=%d sink events differ from serial", workers)
			}
		}
	})
}

// runPriced runs cfg through the schedule replay of Run, with or
// without the lookahead, and returns the books and the sink events.
// Without it (both terms of the launch bound zeroed) each launch's
// price marker fires at its dispatch instant, before anything else
// there: the pricing of the serial engine, which priced every launch
// at dispatch.
func runPriced(t *testing.T, cfg Config, lookahead bool) ([]byte, []Event) {
	t.Helper()
	log := &eventLog{}
	cfg.Sink = log
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !lookahead {
		srv.f.bound = launchBound{}
	}
	if err := srv.Ingest(ScheduleSource(srv.Config())); err != nil {
		t.Fatal(err)
	}
	r, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return marshal(t, r), log.events
}

// TestLookaheadMatchesDispatchPricing pins the pipelined step to the
// engine that prices every launch at dispatch: books and sink events
// are byte-identical at every StepWorkers on the overload golden, a
// batched EDF fleet, a reset-session chaos run and an adaptive fleet
// whose controller ticks every 20 ms — inside the 48.5 ms lookahead, so
// the effective batch size moves between launches' dispatch and their
// price markers, and each launch must keep the form it was gathered in
// — and a cluster-style fleet that fuses up to 8 frames per launch, so
// fused launches carry their own, longer lookahead of b + n·cpu.
func TestLookaheadMatchesDispatchPricing(t *testing.T) {
	batched := goldenConfig()
	batched.Executors, batched.BatchSize, batched.Scheduler = 2, 4, sched.EDF
	chaotic := testConfig()
	chaosModes()["full-reset"](&chaotic)
	adaptive := adaptiveConfig()
	adaptive.Executors = 2
	adaptive.Control.Interval, adaptive.Control.Cooldown = 0.02, 0.02
	adaptive.Control.BatchDepth = 2
	fused := adaptiveConfig()
	fused.Streams, fused.FPS, fused.Executors = 8, 60, 2
	fused.Control.MaxBatch, fused.Control.BatchDepth = 8, 4
	for name, cfg := range map[string]Config{
		"golden": goldenConfig(), "batched-edf": batched, "chaos-reset": chaotic, "adaptive": adaptive,
		"fused-8": fused,
	} {
		t.Run(name, func(t *testing.T) {
			cfg.StepWorkers = 1
			books, events := runPriced(t, cfg, false)
			for _, workers := range []int{1, 2, 4, 8} {
				cfg.StepWorkers = workers
				b, e := runPriced(t, cfg, true)
				if string(b) != string(books) {
					t.Errorf("StepWorkers=%d: books differ from dispatch pricing\ndispatch:  %s\nlookahead: %s", workers, books, b)
				}
				if !reflect.DeepEqual(e, events) {
					t.Errorf("StepWorkers=%d: sink events differ from dispatch pricing", workers)
				}
			}
		})
	}
}

// TestLaunchCapScalesWithLaunch pins the outstanding cap of the step
// pool to the size of the launch being queued: with up to 2×StepWorkers
// n-frame launches in flight, launch returns without the engine
// stepping a frame, for single-frame and fused launches alike, and the
// next launch past the cap steps exactly its own frame count on the
// engine. No background worker runs (the pool is marked started before
// the first launch), so every stepped frame was stepped by the engine.
func TestLaunchCapScalesWithLaunch(t *testing.T) {
	for _, n := range []int{1, 4, 8} {
		for _, workers := range []int{2, 4} {
			cfg := testConfig()
			cfg.Streams = 8
			cfg.StepWorkers = workers
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			f, p := srv.f, &srv.f.pool
			p.started = true
			var all []*admitted
			next := func() []*admitted {
				batch := make([]*admitted, n)
				for k := range batch {
					i := len(all)
					batch[k] = &admitted{job: sched.Job{Stream: i % cfg.Streams, Frame: i / cfg.Streams}}
					all = append(all, batch[k])
				}
				return batch
			}
			stepped := func() int {
				c := 0
				for _, a := range all {
					if a.stepped {
						c++
					}
				}
				return c
			}
			for l := 1; l <= 2*workers; l++ {
				f.launch(next())
				if got := stepped(); got != 0 {
					t.Fatalf("n=%d StepWorkers=%d: the engine stepped %d frames with %d launches in flight", n, workers, got, l)
				}
			}
			f.launch(next())
			if got := stepped(); got != n {
				t.Errorf("n=%d StepWorkers=%d: the engine stepped %d frames past the cap, want %d", n, workers, got, n)
			}
			if want := 2 * workers * n; p.outstanding != want {
				t.Errorf("n=%d StepWorkers=%d: %d steps outstanding past the cap, want %d", n, workers, p.outstanding, want)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// failRun submits the golden overload schedule up to virtual time at,
// fails the server there, revives it at once and submits the rest of
// the schedule — so the sessions that stepped the seized frames serve
// on — then drains, returning the seized frames, the drained books,
// the sink events and how many launches were still waiting for their
// price marker when FailAt was called. Without lookahead (both terms
// of the launch bound zeroed) each launch's marker fires at its
// dispatch instant, before anything else there, so every launch is
// priced at dispatch, as the serial engine always did.
func failRun(t *testing.T, workers int, at float64, lookahead bool) ([]FailedFrame, []byte, []Event, int) {
	t.Helper()
	cfg := goldenConfig()
	cfg.Executors = 3
	cfg.BatchSize = 2
	cfg.StepWorkers = workers
	log := &eventLog{}
	cfg.Sink = log
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !lookahead {
		srv.f.bound = launchBound{}
	}
	src := ScheduleSource(cfg)
	a, ok := src.Next()
	for ; ok && a.At <= at; a, ok = src.Next() {
		if err := srv.Submit(a.Stream, a.Frame, a.At); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.AdvanceTo(at); err != nil {
		t.Fatal(err)
	}
	unpriced := 0
	for _, p := range srv.f.pend {
		if !p.priced {
			unpriced++
		}
	}
	seized, err := srv.FailAt(at)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ResizeAt(cfg.Executors, at); err != nil {
		t.Fatal(err)
	}
	for ; ok; a, ok = src.Next() {
		if err := srv.Submit(a.Stream, a.Frame, a.At); err != nil {
			t.Fatal(err)
		}
	}
	r, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return seized, marshal(t, r), log.events, unpriced
}

// TestFailAtWithStepsInFlight kills servers while launches still wait
// for their price marker — their steps queued or running on the
// background workers — and requires the seized frames, the drained
// books and the sink events to equal those of the serial engine that
// prices every launch at dispatch, at every StepWorkers: failAt joins
// the in-flight steps and prices their launches before seizing them.
func TestFailAtWithStepsInFlight(t *testing.T) {
	inFlight := 0
	for _, at := range []float64{0.5, 1.25, 2, 3.01} {
		seized, books, events, _ := failRun(t, 1, at, false)
		for _, workers := range []int{1, 2, 4, 8} {
			ps, pb, pe, unpriced := failRun(t, workers, at, true)
			inFlight += unpriced
			if !reflect.DeepEqual(ps, seized) {
				t.Errorf("at=%v StepWorkers=%d: seized %v, serial seized %v", at, workers, ps, seized)
			}
			if string(pb) != string(books) {
				t.Errorf("at=%v StepWorkers=%d: books differ from serial\nserial:   %s\nparallel: %s", at, workers, books, pb)
			}
			if !reflect.DeepEqual(pe, events) {
				t.Errorf("at=%v StepWorkers=%d: sink events differ from serial", at, workers)
			}
		}
	}
	if inFlight == 0 {
		t.Fatal("no kill found a launch waiting for its price marker")
	}
}

// TestCloseJoinsStepWorkers pins Close's contract on the step pool: it
// returns only after the background workers have exited, even with
// steps in flight and no Drain — every launch below is dispatched
// inside the lookahead window, so none was priced — and a second Close
// is a no-op.
func TestCloseJoinsStepWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, workers := range []int{2, 4} {
		cfg := testConfig()
		cfg.Streams = 8
		cfg.Executors = 64
		cfg.StepWorkers = workers
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for fr := 0; fr < 4; fr++ {
			for s := 0; s < cfg.Streams; s++ {
				if err := srv.Submit(s, fr, 0.001*float64(fr*cfg.Streams+s)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := runtime.NumGoroutine(); got <= base {
			t.Fatalf("StepWorkers=%d: no step worker running before Close (%d goroutines, baseline %d)", workers, got, base)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		p := &srv.f.pool
		p.mu.Lock()
		for s, running := range p.running {
			if running {
				t.Errorf("StepWorkers=%d: stream %d still stepping after Close", workers, s)
			}
		}
		p.mu.Unlock()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		// A worker that has signalled its exit may not have returned
		// from its goroutine yet; give the runtime a moment to reap it.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > base {
			t.Errorf("StepWorkers=%d: %d goroutines after Close, baseline %d", workers, got, base)
		}
	}
}
