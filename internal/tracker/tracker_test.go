package tracker

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/video"
)

func det(x, y, w, h float64, class int) geom.Scored {
	return geom.Scored{Box: geom.NewBoxCenter(x, y, w, h), Score: 0.9, Class: class}
}

func TestEmergingObjectCreatesTrack(t *testing.T) {
	tr := New(DefaultConfig(), 1242, 375)
	tr.Observe([]geom.Scored{det(100, 100, 40, 30, 0)})
	if len(tr.Tracks()) != 1 {
		t.Fatalf("tracks = %d, want 1", len(tr.Tracks()))
	}
	tk := tr.Tracks()[0]
	if tk.VX != 0 || tk.VY != 0 || tk.VS != 0 {
		t.Fatal("emerging object must start with zero motion (Section 4.1)")
	}
	if tk.Confidence != DefaultConfig().InitialConfidence {
		t.Fatalf("initial confidence = %d", tk.Confidence)
	}
}

func TestMatchUpdatesVelocityWithDecay(t *testing.T) {
	cfg := DefaultConfig()
	tr := New(cfg, 1242, 375)
	tr.Observe([]geom.Scored{det(100, 100, 40, 30, 0)})
	tr.Observe([]geom.Scored{det(110, 100, 40, 30, 0)})
	tk := tr.Tracks()[0]
	// Eq. 1 with eta=0.7, previous velocity 0: v = 0.3 * (110-100) = 3.
	if math.Abs(tk.VX-3) > 1e-9 {
		t.Fatalf("VX = %v, want 3 (exponential decay)", tk.VX)
	}
	if tk.X != 110 {
		t.Fatalf("X = %v, want 110", tk.X)
	}
	// Second step: v = 0.7*3 + 0.3*10 = 5.1.
	tr.Observe([]geom.Scored{det(120, 100, 40, 30, 0)})
	if math.Abs(tk.VX-5.1) > 1e-9 {
		t.Fatalf("VX = %v, want 5.1", tk.VX)
	}
}

func TestPredictionExtrapolates(t *testing.T) {
	tr := New(DefaultConfig(), 1242, 375)
	tr.Observe([]geom.Scored{det(100, 100, 40, 30, 0)})
	tr.Observe([]geom.Scored{det(110, 100, 40, 30, 0)})
	preds := tr.PredictAppend(nil)
	if len(preds) != 1 {
		t.Fatalf("predictions = %d, want 1", len(preds))
	}
	cx, _ := preds[0].Box.Center()
	if math.Abs(cx-113) > 1e-9 { // x' = 110 + 3
		t.Fatalf("predicted cx = %v, want 113", cx)
	}
	if preds[0].Class != 0 {
		t.Fatal("prediction lost class")
	}
}

func TestAspectRatioCarriedForward(t *testing.T) {
	tr := New(DefaultConfig(), 1242, 375)
	tr.Observe([]geom.Scored{det(100, 100, 40, 30, 0)})
	preds := tr.PredictAppend(nil)
	if math.Abs(preds[0].Box.AspectRatio()-0.75) > 1e-9 {
		t.Fatalf("prediction aspect = %v, want 0.75 (r' = r)", preds[0].Box.AspectRatio())
	}
}

func TestMissedTrackCoastsAndDies(t *testing.T) {
	cfg := DefaultConfig()
	tr := New(cfg, 1242, 375)
	// Build confidence with 3 matches (caps at 3).
	tr.Observe([]geom.Scored{det(100, 100, 40, 30, 0)})
	tr.Observe([]geom.Scored{det(110, 100, 40, 30, 0)})
	tr.Observe([]geom.Scored{det(120, 100, 40, 30, 0)})
	tk := tr.Tracks()[0]
	if tk.Confidence != cfg.MaxConfidence {
		t.Fatalf("confidence = %d, want capped %d", tk.Confidence, cfg.MaxConfidence)
	}
	x0 := tk.X
	// Miss: track coasts with constant motion.
	tr.Observe(nil)
	if len(tr.Tracks()) != 1 {
		t.Fatal("track died too early")
	}
	if tk.X <= x0 {
		t.Fatal("missed track did not coast forward")
	}
	// Confidence 3 -> survives 3 more misses, dies on the 4th.
	tr.Observe(nil)
	tr.Observe(nil)
	tr.Observe(nil)
	if len(tr.Tracks()) != 0 {
		t.Fatalf("track should be discarded after confidence < 0, have %d", len(tr.Tracks()))
	}
}

func TestOneFrameFalsePositiveDiesQuickly(t *testing.T) {
	cfg := DefaultConfig()
	tr := New(cfg, 1242, 375)
	tr.Observe([]geom.Scored{det(500, 200, 30, 30, 0)}) // spurious
	tr.Observe(nil)
	tr.Observe(nil)
	if len(tr.Tracks()) != 0 {
		t.Fatalf("unconfirmed track survived %d frames", 2)
	}
}

func TestReacquisitionAfterOcclusion(t *testing.T) {
	// An object that disappears for two frames and returns nearby must
	// re-match the same track, not spawn a new one.
	tr := New(DefaultConfig(), 1242, 375)
	tr.Observe([]geom.Scored{det(100, 100, 40, 30, 0)})
	tr.Observe([]geom.Scored{det(105, 100, 40, 30, 0)})
	tr.Observe([]geom.Scored{det(110, 100, 40, 30, 0)})
	id := tr.Tracks()[0].ID
	tr.Observe(nil) // occluded
	tr.Observe(nil) // occluded
	tr.Observe([]geom.Scored{det(122, 100, 40, 30, 0)})
	if len(tr.Tracks()) != 1 {
		t.Fatalf("tracks = %d, want 1 (re-acquired)", len(tr.Tracks()))
	}
	if tr.Tracks()[0].ID != id {
		t.Fatal("occluded object spawned a new track instead of re-matching")
	}
}

func TestPerClassAssociation(t *testing.T) {
	// A car track must not match a pedestrian detection even at high IoU.
	tr := New(DefaultConfig(), 1242, 375)
	tr.Observe([]geom.Scored{det(100, 100, 40, 30, 0)})
	tr.Observe([]geom.Scored{det(100, 100, 40, 30, 1)})
	if len(tr.Tracks()) != 2 {
		t.Fatalf("tracks = %d, want 2 (class-separated)", len(tr.Tracks()))
	}
}

func TestClassAgnosticAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PerClass = false
	tr := New(cfg, 1242, 375)
	tr.Observe([]geom.Scored{det(100, 100, 40, 30, 0)})
	tr.Observe([]geom.Scored{det(100, 100, 40, 30, 1)})
	if len(tr.Tracks()) != 1 {
		t.Fatalf("class-agnostic tracker made %d tracks, want 1", len(tr.Tracks()))
	}
}

func TestAssociationPrefersHigherIoU(t *testing.T) {
	tr := New(DefaultConfig(), 1242, 375)
	tr.Observe([]geom.Scored{det(100, 100, 40, 30, 0), det(300, 100, 40, 30, 0)})
	a, b := tr.Tracks()[0].ID, tr.Tracks()[1].ID
	// Next frame both moved slightly right; matching must keep identity.
	tr.Observe([]geom.Scored{det(305, 100, 40, 30, 0), det(105, 100, 40, 30, 0)})
	if len(tr.Tracks()) != 2 {
		t.Fatalf("tracks = %d, want 2", len(tr.Tracks()))
	}
	for _, tk := range tr.Tracks() {
		if tk.ID == a && math.Abs(tk.X-105) > 1 {
			t.Fatalf("track %d jumped to %v", a, tk.X)
		}
		if tk.ID == b && math.Abs(tk.X-305) > 1 {
			t.Fatalf("track %d jumped to %v", b, tk.X)
		}
	}
}

func TestZeroIoUNotAssociated(t *testing.T) {
	// beta = 0: disjoint boxes must not match even if they are the only
	// candidates.
	tr := New(DefaultConfig(), 1242, 375)
	tr.Observe([]geom.Scored{det(100, 100, 40, 30, 0)})
	tr.Observe([]geom.Scored{det(900, 300, 40, 30, 0)})
	if len(tr.Tracks()) != 2 {
		t.Fatalf("disjoint detection matched existing track; tracks = %d", len(tr.Tracks()))
	}
}

func TestPredictionFilters(t *testing.T) {
	cfg := DefaultConfig()
	tr := New(cfg, 1242, 375)
	// Narrow track: width 8 < 10 must be filtered from predictions.
	tr.Observe([]geom.Scored{det(100, 100, 8, 20, 0)})
	if preds := tr.PredictAppend(nil); len(preds) != 0 {
		t.Fatalf("narrow prediction not filtered: %v", preds)
	}
	// Boundary-chopped track.
	tr2 := New(cfg, 1242, 375)
	tr2.Observe([]geom.Scored{{Box: geom.NewBoxCenter(-8, 100, 60, 40), Score: 0.9, Class: 0}})
	if preds := tr2.PredictAppend(nil); len(preds) != 0 {
		t.Fatalf("boundary-chopped prediction not filtered: %v", preds)
	}
	// The filters drop the predictions, not the tracks.
	if n := len(tr.Tracks()) + len(tr2.Tracks()); n != 2 {
		t.Fatalf("live tracks = %d, want 2", n)
	}
}

func TestReset(t *testing.T) {
	tr := New(DefaultConfig(), 1242, 375)
	tr.Observe([]geom.Scored{det(100, 100, 40, 30, 0)})
	tr.Reset(DefaultConfig(), 1242, 375)
	if len(tr.Tracks()) != 0 {
		t.Fatal("reset did not clear tracks")
	}
	tr.Observe([]geom.Scored{det(100, 100, 40, 30, 0)})
	if tr.Tracks()[0].ID != 1 {
		t.Fatal("reset did not restart IDs")
	}
}

func TestKalmanMotionModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Motion = Kalman
	tr := New(cfg, 1242, 375)
	// Constant-velocity object; after several updates the filter should
	// predict close to the true next position.
	for i := 0; i < 10; i++ {
		tr.Observe([]geom.Scored{det(100+float64(i)*10, 100, 40, 30, 0)})
	}
	preds := tr.PredictAppend(nil)
	if len(preds) != 1 {
		t.Fatalf("predictions = %d", len(preds))
	}
	cx, _ := preds[0].Box.Center()
	if math.Abs(cx-200) > 5 {
		t.Fatalf("kalman predicted cx = %v, want ~200", cx)
	}
}

// On ground-truth boxes from the synthetic world the tracker's
// predictions should overlap next-frame truth most of the time — the
// property that makes tracker regions useful to the refinement network.
func TestPredictionQualityOnWorld(t *testing.T) {
	p := video.MiniKITTIPreset()
	d := video.Generate(p, 5)
	cfg := DefaultConfig()
	hits, total := 0, 0
	for si := range d.Sequences {
		seq := &d.Sequences[si]
		tr := New(cfg, float64(seq.Width), float64(seq.Height))
		for fi := range seq.Frames {
			if fi > 0 {
				preds := tr.PredictAppend(nil)
				for _, o := range seq.Frames[fi].Objects {
					// Only consider objects that existed in the
					// previous frame (the tracker can't predict
					// objects it has never seen).
					existed := false
					for _, po := range seq.Frames[fi-1].Objects {
						if po.TrackID == o.TrackID {
							existed = true
							break
						}
					}
					if !existed || o.Box.Width() < 12 {
						continue
					}
					total++
					for _, pr := range preds {
						if pr.Class == int(o.Class) && geom.IoU(pr.Box, o.Box) > 0.3 {
							hits++
							break
						}
					}
				}
			}
			// Feed ground truth as "detections".
			var dets []geom.Scored
			for _, o := range seq.Frames[fi].Objects {
				dets = append(dets, geom.Scored{Box: o.Box, Score: 1, Class: int(o.Class)})
			}
			tr.Observe(dets)
		}
	}
	if total < 500 {
		t.Fatalf("too few prediction opportunities: %d", total)
	}
	if frac := float64(hits) / float64(total); frac < 0.85 {
		t.Fatalf("prediction hit rate %.2f < 0.85 on ground truth", frac)
	}
}

// The track count must stay bounded when fed noisy detections — the
// confidence scheme must prune phantom tracks.
func TestTrackPopulationBounded(t *testing.T) {
	tr := New(DefaultConfig(), 1242, 375)
	for fi := 0; fi < 300; fi++ {
		var dets []geom.Scored
		// Two persistent objects plus two random FPs per frame.
		dets = append(dets, det(300+float64(fi), 150, 60, 40, 0))
		dets = append(dets, det(800, 200, 50, 90, 1))
		dets = append(dets, det(float64((fi*97)%1100)+50, float64((fi*61)%300)+30, 25, 25, 0))
		dets = append(dets, det(float64((fi*131)%1100)+50, float64((fi*43)%300)+30, 25, 25, 1))
		tr.Observe(dets)
		if n := len(tr.Tracks()); n > 20 {
			t.Fatalf("frame %d: %d live tracks; phantom tracks not pruned", fi, n)
		}
	}
}

// Feeding ground truth from the synthetic world, track identities
// should be stable: the number of tracks ever matched after their
// spawn should be comparable to the number of ground-truth tracks, not
// explode with fragmentation.
func TestTrackletFragmentationBounded(t *testing.T) {
	p := video.MiniKITTIPreset()
	d := video.Generate(p, 5)
	seq := &d.Sequences[0]
	tr := New(DefaultConfig(), float64(seq.Width), float64(seq.Height))
	matched := map[int]bool{}
	for fi := range seq.Frames {
		var dets []geom.Scored
		for _, o := range seq.Frames[fi].Objects {
			dets = append(dets, geom.Scored{Box: o.Box, Score: 1, Class: int(o.Class)})
		}
		tr.Observe(dets)
		for _, track := range tr.Tracks() {
			if track.Matches > 0 {
				matched[track.ID] = true
			}
		}
	}
	gtTracks := len(seq.Tracks())
	got := len(matched)
	if got > 2*gtTracks {
		t.Fatalf("%d matched tracks for %d ground-truth tracks: heavy fragmentation", got, gtTracks)
	}
	if got == 0 {
		t.Fatal("no track was ever matched")
	}
}
