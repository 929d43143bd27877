package detector

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// crowdedFrame builds a frame dense enough that NMS does real work:
// many overlapping objects of both classes in a tight area, so the raw
// candidate set is large and suppression survivors are interleaved.
func crowdedFrame(index int) Frame {
	var objs []dataset.Object
	id := 1
	for row := 0; row < 4; row++ {
		for col := 0; col < 10; col++ {
			x := 40 + float64(col)*110 + 13*float64(row)
			y := 60 + float64(row)*70
			class := dataset.Car
			if (row+col)%3 == 0 {
				class = dataset.Pedestrian
			}
			objs = append(objs, dataset.Object{
				TrackID: id,
				Class:   class,
				Box:     geom.NewBox(x, y, x+90, y+65),
			})
			id++
		}
	}
	return Frame{SeqID: "crowd", Index: index, Width: 1242, Height: 375, Objects: objs}
}

// rematchNMS is the pre-optimization perceive tail: NMS over the bare
// scored values followed by the O(kept*raw) struct-equality re-match that recovers track
// identity. The test uses it as the reference the index-carrying path
// must reproduce exactly.
func rematchNMS(raw []Detection) []Detection {
	scored := make([]geom.Scored, len(raw))
	for i, r := range raw {
		scored[i] = r.Scored
	}
	var nms geom.NMSBuffer
	idx := nms.Indices(scored, NMSIoU)
	out := make([]Detection, 0, len(idx))
	for _, i := range idx {
		k := scored[i]
		for _, r := range raw {
			if r.Scored == k {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// TestPerceiveMatchesRematchOnCrowdedFrame pins the index-carrying NMS
// against the former identity re-match on crowded frames: identical
// detections (boxes, scores, classes and track IDs) in identical order.
func TestPerceiveMatchesRematchOnCrowdedFrame(t *testing.T) {
	d := MustNew("resnet10c") // highest FP rate: densest raw sets
	for fi := 0; fi < 25; fi++ {
		f := crowdedFrame(fi)

		// Rebuild the raw candidate set exactly as perceive does, via
		// the exported entry point plus the reference tail: perceive is
		// deterministic per (model, seq, frame), so running DetectFull
		// twice sees the same raw candidates.
		got := d.DetectFull(f).Detections

		p := d.Profile
		modelH := hashString(p.Name)
		seqH := hashString(f.SeqID)
		frameKey := hashKey(modelH, seqH, uint64(f.Index))
		var raw []Detection
		for _, o := range f.Objects {
			z := p.logitFor(o, math.Log(p.Midpoint))
			z += p.TrackBias * normal(hashKey(modelH, seqH, uint64(o.TrackID), tagBias))
			prob := p.MaxRecall * sigmoid(z)
			key := hashKey(modelH, seqH, uint64(f.Index), uint64(o.TrackID), tagDetect)
			if uniform(key) >= prob {
				continue
			}
			box, jitterQ := d.jitter(o, hashKey(modelH, seqH, uint64(f.Index), uint64(o.TrackID)))
			conf := sigmoid(p.ConfGain*z + p.ConfNoise*normal(hashKey(key, tagConf)) - p.LocConfCoupling*jitterQ)
			raw = append(raw, Detection{
				Scored:  geom.Scored{Box: box, Score: conf, Class: int(o.Class)},
				TrackID: o.TrackID,
			})
		}
		raw = d.appendFalsePositives(raw, f, nil, 0, frameKey)
		want := rematchNMS(raw)

		if len(got) != len(want) {
			t.Fatalf("frame %d: %d detections, re-match reference has %d", fi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("frame %d detection %d: got %+v, re-match reference %+v", fi, i, got[i], want[i])
			}
		}
	}
}

// TestDetectAllocBudget pins the steady-state allocation budget of the
// full-frame detect path on a crowded frame. The scratch buffers absorb
// candidate accumulation and NMS; the one allocation left is the
// returned Detections slice, which callers own and may retain.
func TestDetectAllocBudget(t *testing.T) {
	d := MustNew("resnet50")
	f := crowdedFrame(0)
	d.DetectFull(f) // warm the scratch buffers
	n := testing.AllocsPerRun(100, func() {
		f.Index = (f.Index + 1) % 50
		d.DetectFull(f)
	})
	if n > 1 {
		t.Errorf("DetectFull allocates %v per frame after warm-up, budget is 1", n)
	}
}

// TestDetectAppendAllocFree pins the cascade's path at zero allocations:
// once the detector's scratch and the caller's buffer are warm, a
// full-frame or region pass appending into that buffer allocates
// nothing.
func TestDetectAppendAllocFree(t *testing.T) {
	d := MustNew("resnet10c") // highest FP rate: densest raw sets
	f := crowdedFrame(0)
	mask := geom.NewMask(float64(f.Width), float64(f.Height), 0)
	mask.AddBox(geom.NewBox(0, 0, 700, 375))
	var buf []geom.Scored
	for fi := 0; fi < 50; fi++ { // warm both buffers on every frame measured
		f.Index = fi
		buf, _ = d.DetectAppend(buf[:0], 0, f, nil, 0)
		buf, _ = d.DetectAppend(buf[:0], 0, f, mask, 20)
	}
	n := testing.AllocsPerRun(100, func() {
		f.Index = (f.Index + 1) % 50
		buf, _ = d.DetectAppend(buf[:0], 0.1, f, nil, 0)
		buf, _ = d.DetectAppend(buf[:0], 0, f, mask, 20)
	})
	if n != 0 {
		t.Errorf("warm DetectAppend allocates %v per frame, want 0", n)
	}
}

// TestDetectAppendMatchesDetect pins the append path against the
// allocating passes: the same Scored values in the same order, cut at
// minScore, and the same cost accounting.
func TestDetectAppendMatchesDetect(t *testing.T) {
	d := MustNew("resnet10c")
	mask := geom.NewMask(1242, 375, 0)
	mask.AddBox(geom.NewBox(100, 40, 900, 300))
	var buf []geom.Scored
	for fi := 0; fi < 25; fi++ {
		f := crowdedFrame(fi)
		for _, minScore := range []float64{math.Inf(-1), 0.1, 0.5} {
			for _, m := range []*geom.Mask{nil, mask} {
				var want Result
				if m == nil {
					want = d.DetectFull(f)
				} else {
					want = d.DetectRegions(f, m, 17)
				}
				var got Result
				buf, got = d.DetectAppend(buf[:0], minScore, f, m, 17)
				var wantScored []geom.Scored
				for _, det := range want.Detections {
					if det.Score >= minScore {
						wantScored = append(wantScored, det.Scored)
					}
				}
				if len(buf) != len(wantScored) {
					t.Fatalf("frame %d min %v mask %v: %d detections, want %d", fi, minScore, m != nil, len(buf), len(wantScored))
				}
				for i := range buf {
					if buf[i] != wantScored[i] {
						t.Fatalf("frame %d min %v mask %v detection %d: %+v, want %+v", fi, minScore, m != nil, i, buf[i], wantScored[i])
					}
				}
				if got.Detections != nil || got.Ops != want.Ops || got.Coverage != want.Coverage || got.NumProposals != want.NumProposals {
					t.Fatalf("frame %d mask %v: result %+v, want %+v without detections", fi, m != nil, got, want)
				}
			}
		}
	}
}

// TestSequenceStateFollowsProfile guards the per-sequence hash cache:
// replacing the profile's name or midpoint, or moving to another
// sequence, must give the detections a fresh detector would.
func TestSequenceStateFollowsProfile(t *testing.T) {
	d := MustNew("resnet50")
	other := MustNew("resnet10c").Profile
	renamed := d.Profile
	renamed.Name = "resnet50-renamed"
	moved := d.Profile
	moved.Midpoint *= 1.7
	f := crowdedFrame(3)
	g := crowdedFrame(3)
	g.SeqID = "crowd-2"
	steps := []struct {
		p Profile
		f Frame
	}{{d.Profile, f}, {renamed, f}, {other, f}, {moved, f}, {moved, g}, {d.Profile, g}, {d.Profile, f}}
	for i, s := range steps {
		d.Profile = s.p
		fresh := &Detector{Profile: s.p, Cost: d.Cost}
		got, want := d.DetectFull(s.f).Detections, fresh.DetectFull(s.f).Detections
		if len(got) != len(want) {
			t.Fatalf("step %d: %d detections, fresh detector %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("step %d detection %d: %+v, fresh detector %+v", i, k, got[k], want[k])
			}
		}
	}
}

// TestDetectResultsIndependent guards the ownership contract: results
// of consecutive invocations on one detector must not alias each other,
// even though the internal scratch is reused.
func TestDetectResultsIndependent(t *testing.T) {
	d := MustNew("resnet50")
	a := d.DetectFull(crowdedFrame(1)).Detections
	snapshot := append([]Detection(nil), a...)
	d.DetectFull(crowdedFrame(2)) // would clobber a if the result aliased scratch
	for i := range a {
		if a[i] != snapshot[i] {
			t.Fatalf("detection %d changed after a later invocation: %+v vs %+v", i, a[i], snapshot[i])
		}
	}
}
