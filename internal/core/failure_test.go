package core

// Failure-injection and edge-case tests: the systems must behave
// sensibly on degenerate inputs — empty frames, empty sequences,
// single-frame clips, objectless worlds — because real deployments hit
// all of these.

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/geom"
)

func emptyFrame(fi int) detector.Frame {
	return detector.Frame{SeqID: "empty", Index: fi, Width: 1242, Height: 375}
}

func allSystems() []System {
	cfg := DefaultConfig()
	return []System{
		NewSingleModel(detector.MustNew("resnet50")),
		NewCascaded(detector.MustNew("resnet10a"), detector.MustNew("resnet50"), cfg),
		NewCaTDet(detector.MustNew("resnet10a"), detector.MustNew("resnet50"), cfg),
	}
}

func TestSystemsHandleObjectlessFrames(t *testing.T) {
	seq := &dataset.Sequence{ID: "empty", Width: 1242, Height: 375}
	for _, sys := range allSystems() {
		sys.Reset(seq)
		for fi := 0; fi < 20; fi++ {
			out := sys.Step(emptyFrame(fi))
			if out.Ops.Total() < 0 {
				t.Fatalf("%s: negative ops", sys.Name())
			}
			// False positives may appear; no true detections should
			// match anything, and nothing should panic.
			for _, d := range out.Detections {
				if !d.Box.Valid() {
					t.Fatalf("%s: invalid detection box", sys.Name())
				}
			}
		}
	}
}

func TestCascadeZeroProposalsCostsOnlyProposalNet(t *testing.T) {
	// With an impossibly high C-thresh nothing is forwarded: the
	// refinement must cost zero and the output must be empty.
	cfg := DefaultConfig()
	cfg.CThresh = 1.1
	sys := NewCascaded(detector.MustNew("resnet10a"), detector.MustNew("resnet50"), cfg)
	seq := &dataset.Sequence{ID: "s", Width: 1242, Height: 375}
	sys.Reset(seq)
	out := sys.Step(detector.Frame{SeqID: "s", Index: 0, Width: 1242, Height: 375,
		Objects: []dataset.Object{{TrackID: 1, Class: dataset.Car, Box: bigBox()}}})
	if out.Ops.Refinement != 0 {
		t.Fatalf("refinement charged %.2e with zero proposals", out.Ops.Refinement)
	}
	if len(out.Detections) != 0 {
		t.Fatalf("detections from an empty region set: %v", out.Detections)
	}
	if out.Ops.Proposal <= 0 {
		t.Fatal("proposal net must still be charged")
	}
}

func TestCaTDetRecoversAfterBlackout(t *testing.T) {
	// Inject a "sensor blackout": frames with no objects mid-sequence.
	// The tracker must drain its tracks and the system must re-detect
	// afterwards without residue from before the blackout.
	sys := NewCaTDet(detector.MustNew("resnet10a"), detector.MustNew("resnet50"), DefaultConfig())
	seq := &dataset.Sequence{ID: "blk", Width: 1242, Height: 375}
	sys.Reset(seq)
	obj := dataset.Object{TrackID: 9, Class: dataset.Car, Box: bigBox()}
	for fi := 0; fi < 15; fi++ {
		sys.Step(detector.Frame{SeqID: "blk", Index: fi, Width: 1242, Height: 375,
			Objects: []dataset.Object{obj}})
	}
	if len(sys.trk.Tracks()) == 0 {
		t.Fatal("no track before blackout")
	}
	for fi := 15; fi < 40; fi++ {
		sys.Step(detector.Frame{SeqID: "blk", Index: fi, Width: 1242, Height: 375})
	}
	if n := len(sys.trk.Tracks()); n != 0 {
		t.Fatalf("%d stale tracks survived a 25-frame blackout", n)
	}
	detected := false
	for fi := 40; fi < 60 && !detected; fi++ {
		out := sys.Step(detector.Frame{SeqID: "blk", Index: fi, Width: 1242, Height: 375,
			Objects: []dataset.Object{obj}})
		detected = len(out.Detections) > 0
	}
	if !detected {
		t.Fatal("system never re-detected after blackout")
	}
}

func TestSingleFrameSequence(t *testing.T) {
	seq := &dataset.Sequence{ID: "one", Width: 1242, Height: 375,
		Frames: []dataset.Frame{{Index: 0, Labeled: true}}}
	for _, sys := range allSystems() {
		sys.Reset(seq)
		out := sys.Step(detector.Frame{SeqID: "one", Index: 0, Width: 1242, Height: 375})
		if out.Ops.Total() < 0 {
			t.Fatalf("%s failed on a single-frame sequence", sys.Name())
		}
	}
}

func TestTinyFrameDimensions(t *testing.T) {
	// A 16x16 frame: masks, costs and detectors must not divide by zero.
	seq := &dataset.Sequence{ID: "tiny", Width: 16, Height: 16}
	for _, sys := range allSystems() {
		sys.Reset(seq)
		out := sys.Step(detector.Frame{SeqID: "tiny", Index: 0, Width: 16, Height: 16})
		if out.Ops.Total() < 0 || out.Coverage < 0 || out.Coverage > 1 {
			t.Fatalf("%s: bad output on tiny frame: %+v", sys.Name(), out.Ops)
		}
	}
}

func bigBox() geom.Box {
	return geom.NewBox(400, 150, 560, 250)
}
