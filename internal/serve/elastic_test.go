package serve

import (
	"context"
	"math"
	"testing"
)

// TestBurstArrivalsGated pins the Burst arrival process: every offered
// frame falls inside the on-window of its period, the off-windows are
// genuinely silent, and the burst shape is echoed into the Result
// identity while the other processes keep theirs unchanged.
func TestBurstArrivalsGated(t *testing.T) {
	cfg := testConfig()
	cfg.Arrivals = Burst
	cfg.BurstPeriod = 1.5
	cfg.BurstDuty = 0.4
	norm := cfg.Normalized()
	times := arrivalTimes(norm)
	total := 0
	for s, ts := range times {
		total += len(ts)
		for _, at := range ts {
			if phase := math.Mod(at, norm.BurstPeriod); phase >= norm.BurstDuty*norm.BurstPeriod {
				t.Fatalf("stream %d offers a frame at %v (phase %v): outside the on-window", s, at, phase)
			}
		}
	}
	if total == 0 {
		t.Fatal("burst schedule offered no frames at all")
	}
	fixed := cfg
	fixed.Arrivals = FixedFPS
	nFixed := 0
	for _, ts := range arrivalTimes(fixed.Normalized()) {
		nFixed += len(ts)
	}
	if total >= nFixed {
		t.Errorf("burst gating dropped nothing: %d frames vs %d on the full grid", total, nFixed)
	}

	r := mustRun(t, cfg)
	if r.BurstPeriod != 1.5 || r.BurstDuty != 0.4 {
		t.Errorf("burst identity not echoed: period %v duty %v", r.BurstPeriod, r.BurstDuty)
	}
	if rf := mustRun(t, fixed); rf.BurstPeriod != 0 || rf.BurstDuty != 0 {
		t.Errorf("fixed-rate result leaked burst identity: %+v", rf)
	}
}

// TestBurstValidation pins the field-path errors of the burst knobs.
func TestBurstValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Arrivals = Burst
	cfg.BurstDuty = 1.5
	if err := cfg.Validate(); err == nil {
		t.Error("BurstDuty 1.5 validated")
	}
	cfg.BurstDuty = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("zero BurstDuty should default, got %v", err)
	}
	cfg.BurstPeriod = math.Inf(1)
	if cfg.Normalized().BurstPeriod != math.Inf(1) {
		t.Error("explicit BurstPeriod overwritten by defaulting")
	}
}

// TestResizeAtElasticity drives the same overloaded scenario statically
// and elastically and pins the resize semantics: scheduled capacity
// changes apply on the virtual clock, growth serves more than the
// undersized static fleet, the capacity integral undercuts the
// oversized one, and the books record the resize trail.
func TestResizeAtElasticity(t *testing.T) {
	base := testConfig()
	base.Streams = 6
	base.FPS = 30
	base.Executors = 1
	base.QueueCap = 64

	small := mustRun(t, base)

	srv, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.ResizeAt(3, 1.0); err != nil {
		t.Fatal(err)
	}
	for _, a := range Schedule(srv.f.cfg) {
		if err := srv.Submit(a.Stream, a.Frame, a.At); err != nil {
			t.Fatal(err)
		}
	}
	r, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Resizes != 1 {
		t.Errorf("resizes = %d, want 1", r.Resizes)
	}
	if r.ExecutorSeconds <= 0 {
		t.Error("no capacity integral recorded after a resize")
	}
	if r.Executors != 1 {
		t.Errorf("result identity executors = %d, want the configured 1", r.Executors)
	}
	if r.Fleet.Served <= small.Fleet.Served {
		t.Errorf("scaling 1->3 at t=1 served %d, static 1 served %d", r.Fleet.Served, small.Fleet.Served)
	}
	// The elastic run was at 1 executor for the first virtual second, so
	// its capacity integral must undercut a static 3-executor fleet over
	// the same horizon.
	if want := 3 * r.LastEventAt; r.ExecutorSeconds >= want {
		t.Errorf("capacity integral %v not below the static-3 %v", r.ExecutorSeconds, want)
	}
	if st := srv.Stats(); st.Executors != 3 {
		t.Errorf("live executor count = %d after resize, want 3", st.Executors)
	}

	if err := srv.ResizeAt(-1, 0); err == nil {
		t.Error("negative executor count accepted")
	}
	if err := srv.ResizeAt(1, math.NaN()); err == nil {
		t.Error("NaN resize time accepted")
	}
}

// TestResizeToZeroParks pins the parked-shard semantics: at 0 executors
// frames queue and nothing serves until capacity returns.
func TestResizeToZeroParks(t *testing.T) {
	cfg := testConfig()
	cfg.QueueCap = -1 // unbounded: parking must not shed load
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.ResizeAt(0, 0); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		if err := srv.Submit(0, k, 0.1*float64(k+1)); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Fleet.Served != 0 || st.QueueDepth != 8 {
		t.Fatalf("parked fleet served %d with depth %d, want 0 and 8", st.Fleet.Served, st.QueueDepth)
	}
	if st.PerStreamQueue[0] != 8 {
		t.Errorf("per-stream backlog = %v, want stream 0 at 8", st.PerStreamQueue)
	}
	if err := srv.ResizeAt(1, 1.0); err != nil {
		t.Fatal(err)
	}
	r, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Fleet.Served != 8 {
		t.Errorf("served %d after reviving the fleet, want all 8", r.Fleet.Served)
	}
}

// TestAdvanceTo pins the control-plane clock sync: advancing plays due
// completions (the live snapshot reflects t, not the last submission)
// and never runs the clock backwards.
func TestAdvanceTo(t *testing.T) {
	cfg := testConfig()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Submit(0, 0, 0.1); err != nil {
		t.Fatal(err)
	}
	busyAt := srv.Stats()
	if busyAt.BusyExecutors != 1 {
		t.Fatalf("submitted frame not in service: %+v", busyAt)
	}
	if err := srv.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.BusyExecutors != 0 || st.Fleet.Served != 1 {
		t.Errorf("advance did not complete the in-flight frame: %+v", st)
	}
	if st.Now != 100 {
		t.Errorf("clock at %v after AdvanceTo(100)", st.Now)
	}
	if err := srv.AdvanceTo(50); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Now; got != 100 {
		t.Errorf("AdvanceTo(50) moved the clock backwards to %v", got)
	}
	if err := srv.AdvanceTo(math.Inf(1)); err == nil {
		t.Error("infinite advance time accepted")
	}
}
