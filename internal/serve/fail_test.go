package serve

import (
	"context"
	"testing"

	"repro/internal/serve/control"
)

// TestFailAtSeizesBacklog pins the seizure contract of FailAt: on the
// overloaded golden scenario the kill returns both the in-flight launch
// and the queued backlog in dispatch-then-queue order, the books
// reconcile (arrived = served + drops + failed over), and the dead
// server drains cleanly at zero capacity.
func TestFailAtSeizesBacklog(t *testing.T) {
	cfg := goldenConfig()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sched := ScheduleSource(cfg)
	for a, ok := sched.Next(); ok && a.At <= 2; a, ok = sched.Next() {
		if err := srv.Submit(a.Stream, a.Frame, a.At); err != nil {
			t.Fatal(err)
		}
	}
	seized, err := srv.FailAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(seized) == 0 {
		t.Fatal("overloaded server died with nothing to seize")
	}
	// Per-stream frame order is preserved across the seizure.
	last := map[int]int{}
	for _, f := range seized {
		if prev, ok := last[f.Stream]; ok && f.Frame <= prev {
			t.Fatalf("stream %d seized out of order: frame %d after %d", f.Stream, f.Frame, prev)
		}
		last[f.Stream] = f.Frame
	}
	st := srv.Stats()
	fl := st.Fleet
	if fl.FailedOver != len(seized) {
		t.Errorf("stats book %d failed-over frames, seizure returned %d", fl.FailedOver, len(seized))
	}
	if st.QueueDepth != 0 || st.BusyExecutors != 0 {
		t.Errorf("dead server still holds work: queue %d, busy %d", st.QueueDepth, st.BusyExecutors)
	}
	if got := fl.Served + fl.DroppedQueue + fl.DroppedStale + fl.FailedOver; got != fl.Arrived {
		t.Errorf("books do not reconcile: served %d + drops %d+%d + failed over %d = %d != arrived %d",
			fl.Served, fl.DroppedQueue, fl.DroppedStale, fl.FailedOver, got, fl.Arrived)
	}
	r, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Fleet.Served + r.Fleet.DroppedQueue + r.Fleet.DroppedStale + r.Fleet.FailedOver; got != r.Fleet.Arrived {
		t.Errorf("drained books do not reconcile: %d != arrived %d", got, r.Fleet.Arrived)
	}
	if r.Fleet.FailedOver != len(seized) {
		t.Errorf("drained result books %d failed-over frames, want %d", r.Fleet.FailedOver, len(seized))
	}
}

// TestCompletionAccountingMatchesDispatch pins that the books, written
// when each launch completes, agree with the dispatch record: every
// dispatch ordinal 1..Batches settles exactly once, each launch fuses at
// most BatchSize frames that all complete at one instant, and the
// per-stream served, degraded and dropped counts equal the sink's
// events — on the overload golden and on a batched EDF scenario whose
// launches can complete out of dispatch order.
func TestCompletionAccountingMatchesDispatch(t *testing.T) {
	scenarios := map[string]Config{"golden": goldenConfig()}
	batched := goldenConfig()
	batched.Executors = 2
	batched.BatchSize = 4
	batched.Scheduler = "edf"
	scenarios["batched-edf"] = batched
	for name, cfg := range scenarios {
		t.Run(name, func(t *testing.T) {
			log := &eventLog{}
			cfg.Sink = log
			r := mustRun(t, cfg)

			size := map[int]int{}
			done := map[int]float64{}
			served := make([]int, len(r.PerStream))
			degraded := make([]int, len(r.PerStream))
			dropped := make([]int, len(r.PerStream))
			for _, e := range log.events {
				switch e.Kind {
				case EventServed:
					served[e.Stream]++
					if e.Degraded {
						degraded[e.Stream]++
					}
					if at, ok := done[e.Batch]; ok && at != e.Time {
						t.Errorf("launch %d completes at both %v and %v", e.Batch, at, e.Time)
					}
					done[e.Batch] = e.Time
					size[e.Batch]++
				case EventDroppedQueue, EventDroppedStale:
					dropped[e.Stream]++
				}
			}
			if len(size) != r.Batches {
				t.Errorf("sink saw %d launches complete, books count %d", len(size), r.Batches)
			}
			for b := 1; b <= r.Batches; b++ {
				if n := size[b]; n < 1 || n > r.BatchSize {
					t.Errorf("launch %d settled %d frames, want 1..%d", b, n, r.BatchSize)
				}
			}
			for i, row := range r.PerStream {
				if row.Served != served[i] || row.Degraded != degraded[i] {
					t.Errorf("%s books served %d (degraded %d), sink saw %d (%d)",
						row.ID, row.Served, row.Degraded, served[i], degraded[i])
				}
				if got := row.DroppedQueue + row.DroppedStale; got != dropped[i] {
					t.Errorf("%s books %d drops, sink saw %d", row.ID, got, dropped[i])
				}
				if row.Served+row.DroppedQueue+row.DroppedStale != row.Arrived {
					t.Errorf("%s books do not reconcile against arrived %d", row.ID, row.Arrived)
				}
			}
		})
	}
}

// TestPinModeOverridesControl pins the PinMode surface the degrade
// failover rides on: a stream pinned to proposal-only serves every
// subsequent frame degraded, and unpinning with ModeAuto hands the
// stream back.
func TestPinModeOverridesControl(t *testing.T) {
	cfg := testConfig()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.PinMode(0, control.ModeProposal); err != nil {
		t.Fatal(err)
	}
	if err := srv.PinMode(99, control.ModeProposal); err == nil {
		t.Error("PinMode accepted an out-of-range stream")
	}
	if err := srv.PinMode(0, "warp"); err == nil {
		t.Error("PinMode accepted an unknown mode")
	}
	if _, got := srv.f.modeOf(0); got != control.ModeProposal {
		t.Errorf("pinned stream's configured mode is %q, want %q", got, control.ModeProposal)
	}
	if err := srv.Ingest(ScheduleSource(cfg)); err != nil {
		t.Fatal(err)
	}
	r, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pinned := r.PerStream[0]
	if pinned.Served == 0 {
		t.Fatal("pinned stream served nothing")
	}
	if pinned.Degraded != pinned.Served {
		t.Errorf("pinned stream served %d frames but only %d degraded — the pin did not hold", pinned.Served, pinned.Degraded)
	}
	for _, row := range r.PerStream[1:] {
		if row.Degraded != 0 {
			t.Errorf("unpinned stream %s degraded %d frames on an unloaded fleet", row.ID, row.Degraded)
		}
	}
	if err := srv.PinMode(0, control.ModeAuto); err != nil {
		t.Fatal(err)
	}
	if _, got := srv.f.modeOf(0); got != control.ModeAuto {
		t.Errorf("unpinned stream's configured mode is %q, want the automatic policy", got)
	}
}
