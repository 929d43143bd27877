package core

import (
	"testing"

	"repro/internal/detector"
)

// sequenceAllocs measures the allocations of one whole pass of the
// mini world, Reset included, on a system that has already run one:
// AllocsPerRun's warm-up call is the first pass, and the two measured
// passes each start with a Reset.
func sequenceAllocs(t *testing.T, sys System) (allocs float64, frames int) {
	t.Helper()
	seq := miniSeq(t)
	n := len(seq.Frames)
	return testing.AllocsPerRun(2, func() {
		sys.Reset(seq)
		for fi := 0; fi < n; fi++ {
			sys.Step(frameOf(seq, fi))
		}
	}), n
}

// TestStepAllocBudgets pins the allocation budget of each system's
// Step on every sequence after the first, Reset included: one
// allocation per frame at most, the caller-retained
// FrameOutput.Detections. Detector passes append into the system's
// scratch, and masks, cost matrices, NMS bookkeeping and region lists
// stay on reused scratch too. CaTDet's Reset keeps its tracker, so
// track spawns reuse the tracks earlier sequences discarded.
func TestStepAllocBudgets(t *testing.T) {
	cases := []struct {
		name string
		sys  System
	}{
		{"single", NewSingleModel(detector.MustNew("resnet50"))},
		{"cascaded", NewCascaded(detector.MustNew("resnet10a"), detector.MustNew("resnet50"), DefaultConfig())},
		{"catdet", NewCaTDet(detector.MustNew("resnet10a"), detector.MustNew("resnet50"), DefaultConfig())},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if n, frames := sequenceAllocs(t, c.sys); n > float64(frames) {
				t.Errorf("%s allocates %v over a %d-frame sequence after Reset, budget is one per frame", c.name, n, frames)
			}
		})
	}
}
