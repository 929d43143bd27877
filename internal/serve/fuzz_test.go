package serve

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/video"
)

// FuzzSubmit drives Server.Submit with adversarial (stream, frame,
// arriveAt) triples — regressing frames, negative and huge indices,
// NaN/Inf/negative stamps — under every reconnect × poison policy
// combination, and checks the engine's invariants instead of its
// outputs: Submit never panics, a rejected submission leaves the
// server usable, Drain always succeeds, and the books always
// partition (arrived = served + dropped-by-queue + dropped-stale,
// with poison pills counted strictly outside the partition).
//
// The corpus seeds are the historical Submit validation cases; the CI
// smoke run replays the corpus plus a short -fuzztime exploration.
func FuzzSubmit(f *testing.F) {
	// One tuple is two submissions to exercise per-stream ordering,
	// plus the policy selectors.
	seed := func(s1, f1 int, t1 float64, s2, f2 int, t2 float64) {
		for rec := byte(0); rec < 3; rec++ {
			f.Add(s1, f1, t1, s2, f2, t2, rec, true)
		}
		f.Add(s1, f1, t1, s2, f2, t2, byte(0), false)
	}
	seed(0, 0, 0.0, 0, 1, 0.1)                 // clean pair
	seed(0, 5, 1.0, 0, 3, 2.0)                 // frame regression
	seed(0, 0, 1.0, 0, 1, 0.5)                 // time regression
	seed(0, -1, 0.0, 1, 0, 0.0)                // negative frame
	seed(0, 1<<30, 0.0, 0, 2, 0.0)             // frame past MaxFrame
	seed(0, 0, math.NaN(), 0, 0, math.Inf(1))  // non-finite stamps
	seed(-3, 0, 0.0, 99, 0, 0.0)               // streams out of range
	seed(1, 0, -5.0, 1, 0, -5.0)               // negative time, equal frame
	seed(0, 2, 0.0, 0, 2, 0.0)                 // duplicate frame
	seed(1, 4096, 0.25, 1, 4097, math.Inf(-1)) // boundary of the fuzz MaxFrame

	policies := []ReconnectPolicy{ReconnectReject, ReconnectResume, ReconnectReset}
	f.Fuzz(func(t *testing.T, s1, f1 int, t1 float64, s2, f2 int, t2 float64, rec byte, drop bool) {
		cfg := Config{
			Spec: sim.SystemSpec{
				Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50",
				Cfg: core.DefaultConfig(),
			},
			Preset:   video.MiniKITTIPreset(),
			Seed:     1,
			Streams:  2,
			FPS:      4,
			Duration: 1,
			// A tight world bound so a fuzzed huge-but-legal index
			// cannot grow a million-frame world per iteration.
			MaxFrame:  4096,
			Reconnect: policies[int(rec)%len(policies)],
		}
		if drop {
			cfg.Poison = PoisonDrop
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatalf("New rejected a valid config: %v", err)
		}
		defer srv.Close()

		okSubmits := 0
		for _, sub := range []struct {
			stream, frame int
			at            float64
		}{{s1, f1, t1}, {s2, f2, t2}} {
			if err := srv.Submit(sub.stream, sub.frame, sub.at); err == nil {
				okSubmits++
			} else if sub.stream >= 0 && sub.stream < cfg.Streams && drop &&
				(sub.frame < 0 || sub.frame > cfg.MaxFrame || math.IsNaN(sub.at) || math.IsInf(sub.at, 0)) {
				t.Errorf("PoisonDrop did not swallow pill (%d, %d, %v): %v", sub.stream, sub.frame, sub.at, err)
			}
		}
		// A rejected submission must leave the server usable. Under a
		// non-rejecting reconnect policy with PoisonDrop, Submit on an
		// in-range stream can never fail — regressions reconnect,
		// backwards clocks re-stamp, garbage is swallowed — so the
		// follow-up must go through no matter what was fuzzed before
		// it. (Under the strict policies a fuzzed input can legally pin
		// the stream at MaxFrame or a near-max stamp, leaving no
		// acceptable successor, so there is nothing to assert.)
		extra := 0
		if cfg.Reconnect != ReconnectReject && drop {
			if err := srv.Submit(0, cfg.MaxFrame, math.MaxFloat64/2); err != nil {
				t.Errorf("server unusable after fuzzed submissions: %v", err)
			}
			extra = 1
		}
		r, err := srv.Drain(context.Background())
		if err != nil {
			t.Fatalf("Drain failed: %v", err)
		}
		if got := r.Fleet.Served + r.Fleet.DroppedQueue + r.Fleet.DroppedStale; got != r.Fleet.Arrived {
			t.Errorf("books do not partition: served %d + droppedQ %d + droppedStale %d != arrived %d",
				r.Fleet.Served, r.Fleet.DroppedQueue, r.Fleet.DroppedStale, r.Fleet.Arrived)
		}
		if r.Fleet.Arrived > okSubmits+extra {
			t.Errorf("arrived %d exceeds the %d accepted submissions", r.Fleet.Arrived, okSubmits+extra)
		}
		st := srv.Stats().Fleet
		if st.Arrived != r.Fleet.Arrived || st.DroppedPoison != r.Fleet.DroppedPoison {
			t.Errorf("Stats (%d arrived, %d poison) disagree with Result (%d, %d)",
				st.Arrived, st.DroppedPoison, r.Fleet.Arrived, r.Fleet.DroppedPoison)
		}
	})
}
