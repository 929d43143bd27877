package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/gpumodel"
	"repro/internal/serve/control"
)

// TestServerMatchesGolden drives a Server by hand — New, per-arrival
// Submit, Drain — over the pinned overload scenario and requires the
// result to reproduce testdata/golden_fifo.json byte for byte: the
// open push-based surface and the closed-loop driver are the same
// machine.
func TestServerMatchesGolden(t *testing.T) {
	srv, err := New(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, a := range Schedule(srv.f.cfg) {
		if err := srv.Submit(a.Stream, a.Frame, a.At); err != nil {
			t.Fatal(err)
		}
	}
	r, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile(filepath.Join("testdata", "golden_fifo.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Server-driven run drifted from the golden\ngot:\n%s", got)
	}
}

// TestConcurrentSubmit pushes every stream from its own goroutine —
// the live-ingest topology — and checks the books stay exact: all
// methods are concurrency-safe (the race detector covers this test),
// every submitted frame is accounted exactly once, and totals
// partition into served + dropped.
func TestConcurrentSubmit(t *testing.T) {
	cfg := testConfig()
	cfg.Streams = 4
	cfg.QueueCap = 6
	cfg.MaxStaleness = 0.3
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const perStream = 120
	var wg sync.WaitGroup
	for s := 0; s < cfg.Streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < perStream; k++ {
				at := float64(k)/15 + float64(s)*0.001
				if err := srv.Submit(s, k, at); err != nil {
					t.Errorf("stream %d frame %d: %v", s, k, err)
					return
				}
			}
		}(s)
	}
	// Poll live stats while the submitters run: snapshots must be
	// internally consistent at any instant.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			st := srv.Stats().Fleet
			if st.Served+st.DroppedQueue+st.DroppedStale > st.Arrived {
				t.Errorf("stats outran arrivals: %+v", st)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	r, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Streams * perStream; r.Fleet.Arrived != want {
		t.Errorf("arrived %d, submitted %d", r.Fleet.Arrived, want)
	}
	if got := r.Fleet.Served + r.Fleet.DroppedQueue + r.Fleet.DroppedStale; got != r.Fleet.Arrived {
		t.Errorf("served+dropped = %d does not partition arrived %d", got, r.Fleet.Arrived)
	}
	for _, st := range r.PerStream {
		if st.Arrived != perStream {
			t.Errorf("%s arrived %d, submitted %d", st.ID, st.Arrived, perStream)
		}
	}
}

// TestStatsConsistentWithResult pins the snapshot-vs-final contract:
// after a full Drain, Stats' horizon equals the Result's makespan, its
// fleet row equals the Result's in everything but the sliding-window
// latency, and the instantaneous state is empty.
func TestStatsConsistentWithResult(t *testing.T) {
	cfg := testConfig()
	cfg.Streams = 6
	cfg.FPS = 30
	cfg.QueueCap = 4
	cfg.MaxStaleness = 0.3
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, a := range Schedule(srv.f.cfg) {
		if err := srv.Submit(a.Stream, a.Frame, a.At); err != nil {
			t.Fatal(err)
		}
	}

	mid := srv.Stats()
	if mid.Fleet.Arrived == 0 || mid.Fleet.Served == 0 {
		t.Fatalf("no live progress before Drain: %+v", mid)
	}

	r, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	got, want := st.Fleet, r.Fleet
	got.Latency, want.Latency = LatencySummary{}, LatencySummary{}
	if got != want {
		t.Errorf("drained stats fleet %+v disagrees with result fleet %+v", got, want)
	}
	if st.Now != r.LastEventAt {
		t.Errorf("stats horizon %v != result makespan %v", st.Now, r.LastEventAt)
	}
	if st.QueueDepth != 0 || st.BusyExecutors != 0 {
		t.Errorf("drained server not idle: depth %d busy %d", st.QueueDepth, st.BusyExecutors)
	}

	// AppendLatencies hands back each stream's full served sample set:
	// its summary is the Result row's.
	dst := []float64{-1}
	for i, row := range r.PerStream {
		lat := srv.AppendLatencies(dst, i)
		if lat[0] != -1 || summarize(lat[1:]) != row.Latency {
			t.Errorf("stream %d: AppendLatencies summary %+v, row %+v", i, summarize(lat[1:]), row.Latency)
		}
	}
	for _, bad := range []int{-1, cfg.Streams} {
		if got := srv.AppendLatencies(dst, bad); len(got) != 1 {
			t.Errorf("AppendLatencies(dst, %d) grew dst to %d samples", bad, len(got))
		}
	}
}

// TestStatsWindowBounded pins the sliding window: its sample count
// never exceeds Config.StatsWindow even though far more frames serve.
func TestStatsWindowBounded(t *testing.T) {
	cfg := testConfig()
	cfg.StatsWindow = 8
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, a := range Schedule(srv.f.cfg) {
		if err := srv.Submit(a.Stream, a.Frame, a.At); err != nil {
			t.Fatal(err)
		}
	}
	r, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if r.Fleet.Served <= 8 {
		t.Fatalf("scenario served only %d frames; cannot exercise the window", r.Fleet.Served)
	}
	if st.Fleet.Latency.Count != 8 {
		t.Errorf("window holds %d samples, want 8", st.Fleet.Latency.Count)
	}
	if st.Fleet.Latency.Max > r.Fleet.Latency.Max {
		t.Errorf("window max %v exceeds overall max %v", st.Fleet.Latency.Max, r.Fleet.Latency.Max)
	}
}

// TestSubmitValidation pins the Submit contract errors.
func TestSubmitValidation(t *testing.T) {
	srv, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(-1, 0, 0); err == nil {
		t.Error("accepted a negative stream")
	}
	if err := srv.Submit(99, 0, 0); err == nil {
		t.Error("accepted an out-of-range stream")
	}
	if err := srv.Submit(0, 3, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(0, 3, 2.0); err == nil {
		t.Error("accepted a repeated frame index")
	}
	if err := srv.Submit(0, 2, 2.0); err == nil {
		t.Error("accepted a regressing frame index")
	}
	if err := srv.Submit(0, 4, 0.5); err == nil {
		t.Error("accepted a regressing per-stream arrival time")
	}
	if err := srv.Submit(0, 4, math.NaN()); err == nil {
		t.Error("accepted a NaN arrival time")
	}
	if err := srv.Submit(0, 4, math.Inf(1)); err == nil {
		t.Error("accepted an infinite arrival time")
	}
	if err := srv.Submit(1, 0, 0.2); err != nil {
		t.Errorf("independent stream rejected: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(2, 0, 3.0); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: %v, want ErrClosed", err)
	}
	if _, err := srv.Drain(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Drain after Close: %v, want ErrClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestDrainCancel checks context cancellation: a canceled Drain
// returns the context error, keeps partial state, and a later Drain
// finishes the job with the full books.
func TestDrainCancel(t *testing.T) {
	cfg := testConfig()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, a := range Schedule(srv.f.cfg) {
		if err := srv.Submit(a.Stream, a.Frame, a.At); err != nil {
			t.Fatal(err)
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Drain(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Drain returned %v", err)
	}
	r, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := mustRun(t, cfg)
	if got, wantB := marshal(t, r), marshal(t, want); !bytes.Equal(got, wantB) {
		t.Errorf("post-cancel Drain drifted from Run:\n got: %s\nwant: %s", got, wantB)
	}
}

// TestLateCrossStreamSubmit pins the racy-submission escape hatch: a
// frame submitted behind the engine's clock (possible when concurrent
// sources race across streams) is admitted at the clock but keeps its
// arrival stamp, so the books still partition exactly.
func TestLateCrossStreamSubmit(t *testing.T) {
	cfg := testConfig()
	cfg.MaxStaleness = 0 // keep the late frame servable
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Stream 0 advances the clock far ahead; stream 1 then submits in
	// the past.
	if err := srv.Submit(0, 0, 5.0); err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(1, 0, 1.0); err != nil {
		t.Fatalf("late cross-stream submit rejected: %v", err)
	}
	r, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Fleet.Arrived != 2 || r.Fleet.Served != 2 {
		t.Fatalf("books wrong after late submit: %+v", r.Fleet)
	}
	// The late frame's latency counts from its true arrival (1.0), so
	// it served no earlier than the clock it was admitted at (5.0).
	if lat := r.PerStream[1].Latency.Max; lat < 4.0 {
		t.Errorf("late frame latency %v does not count from its arrival stamp", lat)
	}
}

// TestValidateFieldPaths pins the field-path error format of
// Config.Validate.
func TestValidateFieldPaths(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Spec.Kind = "" }, "serve: Spec.Kind: required"},
		{func(c *Config) { c.Arrivals = "bursty" }, "serve: Arrivals: unknown arrival process"},
		{func(c *Config) { c.StreamFPS = []float64{1, 2, 3} }, "serve: StreamFPS: len 3 != Streams 4"},
		{func(c *Config) { c.StreamFPS = []float64{1, 2, -3, 4} }, "serve: StreamFPS[2]: must be positive"},
		{func(c *Config) { c.Scheduler = "lifo" }, "serve: Scheduler: unknown scheduler"},
		{func(c *Config) { c.Priorities = []int{1} }, "serve: Priorities: len 1 != Streams 4"},
		{func(c *Config) { c.Drop = "drop-random" }, "serve: Drop: unknown drop policy"},
		{func(c *Config) { c.MaxStaleness = -1 }, "serve: MaxStaleness: must be non-negative"},
		{func(c *Config) { c.DegradeDepth = -1 }, "serve: DegradeDepth: must be non-negative"},
		{func(c *Config) { c.Reconnect = "retry" }, "serve: Reconnect: unknown reconnect policy"},
		{func(c *Config) { c.Poison = "quarantine" }, "serve: Poison: unknown poison policy"},
		{func(c *Config) { c.MaxFrame = -5 }, "serve: MaxFrame: must be positive"},
		{func(c *Config) { c.Chaos.DropoutRate = -1 }, "serve: Chaos.DropoutRate: must be non-negative"},
		{func(c *Config) { c.Chaos.DropoutMeanLen = -1 }, "serve: Chaos.DropoutMeanLen: must be non-negative"},
		{func(c *Config) { c.Chaos.FPSJitter = 3 }, "serve: Chaos.FPSJitter: outside [0,2]"},
		{func(c *Config) { c.Chaos.ClockSkew = -0.1 }, "serve: Chaos.ClockSkew: must be non-negative"},
		{func(c *Config) { c.Chaos.PoisonRate = 1.5 }, "serve: Chaos.PoisonRate: outside [0,1]"},
		{func(c *Config) { c.Chaos.Renumber = true }, "serve: Chaos.Renumber: restarted frame numbering needs Reconnect"},
		{func(c *Config) { c.Chaos.PoisonRate = 0.1 }, "serve: Chaos.PoisonRate: injected pills need Poison"},
		// Non-finite values pass the sign checks; each must still fail
		// (NaN or +Inf rates and durations never end the arrival loop).
		{func(c *Config) { c.FPS = math.NaN() }, "serve: FPS: must be finite"},
		{func(c *Config) { c.FPS = math.Inf(1) }, "serve: FPS: must be finite"},
		{func(c *Config) { c.Duration = math.Inf(1) }, "serve: Duration: must be finite"},
		{func(c *Config) { c.StreamFPS = []float64{10, math.NaN(), 10, 10} }, "serve: StreamFPS[1]: must be positive and finite"},
		{func(c *Config) { c.StreamFPS = []float64{10, 10, 10, math.Inf(1)} }, "serve: StreamFPS[3]: must be positive and finite"},
		{func(c *Config) { c.MaxStaleness = math.NaN() }, "serve: MaxStaleness: must be non-negative"},
		{func(c *Config) { c.Arrivals, c.BurstPeriod = Burst, math.NaN() }, "serve: BurstPeriod: must be positive"},
		{func(c *Config) { c.Arrivals, c.BurstDuty = Burst, math.NaN() }, "serve: BurstDuty: outside (0,1]"},
		{func(c *Config) { c.Chaos.DropoutRate = math.NaN() }, "serve: Chaos.DropoutRate: must be non-negative"},
		{func(c *Config) { c.Chaos.DropoutMeanLen = math.NaN() }, "serve: Chaos.DropoutMeanLen: must be non-negative"},
		{func(c *Config) { c.Chaos.FPSJitter = math.NaN() }, "serve: Chaos.FPSJitter: outside [0,2]"},
		{func(c *Config) { c.Chaos.ClockSkew = math.NaN() }, "serve: Chaos.ClockSkew: must be non-negative"},
		{func(c *Config) { c.Chaos.ClockSkew = math.Inf(1) }, "serve: Chaos.ClockSkew: must be non-negative and finite"},
		{func(c *Config) { c.Chaos.PoisonRate = math.NaN() }, "serve: Chaos.PoisonRate: outside [0,1]"},
		{func(c *Config) { c.Control = control.Config{Kind: control.KindBaseline, Interval: math.NaN()} }, "serve: Control.Interval: control tick must be positive"},
		// A NaN Alpha served no frame and broke conservation; a negative
		// launch overhead priced frames below zero.
		{func(c *Config) { m := gpumodel.Default(); m.Alpha = math.NaN(); c.GPU = &m }, "serve: GPU.Alpha: must be finite and non-negative"},
		{func(c *Config) { m := gpumodel.Default(); m.LaunchOverhead = -0.2; c.GPU = &m }, "serve: GPU.LaunchOverhead: must be finite and non-negative"},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("Validate accepted a config that should fail with %q", tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate error %q does not carry field path %q", err, tc.want)
		}
		if _, runErr := Run(cfg); runErr == nil {
			t.Errorf("Run accepted a config Validate rejects (%q)", tc.want)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("Validate rejected a good config: %v", err)
	}
}
