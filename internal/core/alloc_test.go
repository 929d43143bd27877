package core

import (
	"testing"

	"repro/internal/detector"
)

// stepBudget measures the steady-state per-frame allocation count of a
// system over the mini world after a warm-up pass.
func stepBudget(t *testing.T, sys System) float64 {
	t.Helper()
	seq := miniSeq(t)
	sys.Reset(seq)
	n := len(seq.Frames)
	for fi := 0; fi < n; fi++ { // warm every scratch buffer
		sys.Step(frameOf(seq, fi))
	}
	sys.Reset(seq)
	fi := 0
	return testing.AllocsPerRun(n-1, func() {
		sys.Step(frameOf(seq, fi))
		fi = (fi + 1) % n
	})
}

// TestStepAllocBudgets pins the steady-state per-frame allocation
// budget of each system's Step: the one allocation is the
// caller-retained FrameOutput.Detections. Detector passes append into
// the system's scratch, and masks, cost matrices, NMS bookkeeping and
// region lists stay on reused scratch too. CaTDet's extra unit is
// headroom for track spawns, which allocate until the fresh tracker
// Reset builds has recycled its first discarded tracks.
func TestStepAllocBudgets(t *testing.T) {
	cases := []struct {
		name   string
		sys    System
		budget float64
	}{
		{"single", NewSingleModel(detector.MustNew("resnet50")), 1},
		{"cascaded", NewCascaded(detector.MustNew("resnet10a"), detector.MustNew("resnet50"), DefaultConfig()), 1},
		{"catdet", NewCaTDet(detector.MustNew("resnet10a"), detector.MustNew("resnet50"), DefaultConfig()), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if n := stepBudget(t, c.sys); n > c.budget {
				t.Errorf("%s Step allocates %v per frame at steady state, budget is %v", c.name, n, c.budget)
			}
		})
	}
}
