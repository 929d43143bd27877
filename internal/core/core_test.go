package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/video"
)

func miniSeq(t *testing.T) *dataset.Sequence {
	t.Helper()
	p := video.MiniKITTIPreset()
	d := video.Generate(p, 3)
	return &d.Sequences[0]
}

func frameOf(seq *dataset.Sequence, fi int) detector.Frame {
	return detector.Frame{
		SeqID: seq.ID, Index: fi, Width: seq.Width, Height: seq.Height,
		Objects: seq.Frames[fi].Objects,
	}
}

func TestSingleModelOpsConstant(t *testing.T) {
	seq := miniSeq(t)
	sys := NewSingleModel(detector.MustNew("resnet50"))
	sys.Reset(seq)
	want := 254.3e9
	for fi := 0; fi < 10; fi++ {
		out := sys.Step(frameOf(seq, fi))
		if math.Abs(out.Ops.Total()-want)/want > 1e-6 {
			t.Fatalf("frame %d: ops = %.3e, want %.3e", fi, out.Ops.Total(), want)
		}
		if out.Coverage != 1 {
			t.Fatalf("single-model coverage = %v", out.Coverage)
		}
	}
}

func TestCascadedCheaperThanSingle(t *testing.T) {
	seq := miniSeq(t)
	single := NewSingleModel(detector.MustNew("resnet50"))
	casc := NewCascaded(detector.MustNew("resnet10a"), detector.MustNew("resnet50"), DefaultConfig())
	single.Reset(seq)
	casc.Reset(seq)
	var sOps, cOps float64
	for fi := 0; fi < 60; fi++ {
		sOps += single.Step(frameOf(seq, fi)).Ops.Total()
		cOps += casc.Step(frameOf(seq, fi)).Ops.Total()
	}
	if cOps >= sOps/2 {
		t.Fatalf("cascade ops %.3e not well below single %.3e", cOps, sOps)
	}
}

func TestCascadedBreakdownConsistency(t *testing.T) {
	seq := miniSeq(t)
	casc := NewCascaded(detector.MustNew("resnet10a"), detector.MustNew("resnet50"), DefaultConfig())
	casc.Reset(seq)
	if casc.trk != nil {
		t.Fatal("cascade built a tracker")
	}
	for fi := 0; fi < 30; fi++ {
		out := casc.Step(frameOf(seq, fi))
		if out.Ops.Proposal <= 0 {
			t.Fatal("no proposal cost charged")
		}
		if math.Abs(out.Ops.Total()-(out.Ops.Proposal+out.Ops.Refinement)) > 1 {
			t.Fatal("total != proposal + refinement")
		}
		if out.ProposalRegions != len(out.Regions) {
			t.Fatalf("frame %d: %d of %d regions from proposals; the cascade has no other source",
				fi, out.ProposalRegions, len(out.Regions))
		}
	}
}

func TestCaTDetResetClearsTracker(t *testing.T) {
	seq := miniSeq(t)
	cat := NewCaTDet(detector.MustNew("resnet10a"), detector.MustNew("resnet50"), DefaultConfig())
	cat.Reset(seq)
	for fi := 0; fi < 30; fi++ {
		cat.Step(frameOf(seq, fi))
	}
	if len(cat.trk.Tracks()) == 0 {
		t.Fatal("no tracks formed in 30 frames")
	}
	cat.Reset(seq)
	if len(cat.trk.Tracks()) != 0 {
		t.Fatal("Reset leaked tracker state across sequences")
	}
}

func TestCaTDetStepBeforeResetDoesNotPanic(t *testing.T) {
	seq := miniSeq(t)
	cat := NewCaTDet(detector.MustNew("resnet10b"), detector.MustNew("resnet50"), DefaultConfig())
	out := cat.Step(frameOf(seq, 0)) // no Reset
	if out.Ops.Total() <= 0 {
		t.Fatal("no work charged")
	}
}

func TestCaTDetCoverageSmall(t *testing.T) {
	seq := miniSeq(t)
	cat := NewCaTDet(detector.MustNew("resnet10a"), detector.MustNew("resnet50"), DefaultConfig())
	cat.Reset(seq)
	sum := 0.0
	const frames = 60
	for fi := 0; fi < frames; fi++ {
		sum += cat.Step(frameOf(seq, fi)).Coverage
	}
	avg := sum / frames
	if avg <= 0 || avg > 0.6 {
		t.Fatalf("average refinement coverage = %.3f, want small fraction", avg)
	}
}

func TestCaTDetHigherCThreshReducesOps(t *testing.T) {
	seq := miniSeq(t)
	run := func(cthresh float64) float64 {
		cfg := DefaultConfig()
		cfg.CThresh = cthresh
		cat := NewCaTDet(detector.MustNew("resnet10a"), detector.MustNew("resnet50"), cfg)
		cat.Reset(seq)
		total := 0.0
		for fi := 0; fi < 60; fi++ {
			total += cat.Step(frameOf(seq, fi)).Ops.Total()
		}
		return total
	}
	low, high := run(0.01), run(0.6)
	if high >= low {
		t.Fatalf("raising C-thresh did not reduce ops: %.3e -> %.3e", low, high)
	}
}

func TestSystemNames(t *testing.T) {
	p, r := detector.MustNew("resnet10a"), detector.MustNew("resnet50")
	if NewSingleModel(r).Name() == "" || NewCascaded(p, r, DefaultConfig()).Name() == "" ||
		NewCaTDet(p, r, DefaultConfig()).Name() == "" {
		t.Fatal("empty system name")
	}
}

func TestMarginDefault(t *testing.T) {
	c := Config{}
	if c.margin() != Margin {
		t.Fatalf("default margin = %v", c.margin())
	}
	c.Margin = 10
	if c.margin() != 10 {
		t.Fatalf("explicit margin = %v", c.margin())
	}
}

func TestOpsBreakdownArithmetic(t *testing.T) {
	var b OpsBreakdown
	b.Add(OpsBreakdown{Proposal: 10, Refinement: 20})
	b.Add(OpsBreakdown{Proposal: 10, Refinement: 20})
	if b.Total() != 60 {
		t.Fatalf("total = %v", b.Total())
	}
	s := b.Scale(2)
	if s.Proposal != 10 || s.Refinement != 20 {
		t.Fatalf("scale = %+v", s)
	}
	if z := b.Scale(0); z != b {
		t.Fatal("scale by zero should be identity")
	}
}

// The tracker must rescue objects the proposal network misses: compare
// the set of ground-truth tracks ever detected by Cascaded vs CaTDet
// with the same weak proposal network.
func TestCaTDetRecallsMoreTracksThanCascaded(t *testing.T) {
	p := video.KITTIPreset()
	p.NumSequences = 2
	p.FramesPerSeq = 250
	ds := video.Generate(p, 11)

	detected := func(sysName string) map[[2]int]bool {
		found := map[[2]int]bool{}
		for si := range ds.Sequences {
			seq := &ds.Sequences[si]
			var sys System
			prop, ref := detector.MustNew("resnet10b"), detector.MustNew("resnet50")
			if sysName == "cascaded" {
				sys = NewCascaded(prop, ref, DefaultConfig())
			} else {
				sys = NewCaTDet(prop, ref, DefaultConfig())
			}
			sys.Reset(seq)
			for fi := range seq.Frames {
				out := sys.Step(frameOf(seq, fi))
				for _, o := range seq.Frames[fi].Objects {
					if !dataset.Hard.Eligible(o) {
						continue
					}
					for _, det := range out.Detections {
						if det.Class == int(o.Class) && det.Score >= 0.5 &&
							geom.IoU(det.Box, o.Box) >= o.Class.MatchIoU() {
							found[[2]int{si, o.TrackID}] = true
							break
						}
					}
				}
			}
		}
		return found
	}
	casc := detected("cascaded")
	cat := detected("catdet")
	if len(cat) < len(casc) {
		t.Fatalf("CaTDet found %d tracks, cascaded %d — temporal feedback should help", len(cat), len(casc))
	}
}
