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

// rematchNMS is the pre-optimization perceive tail: value NMS followed
// by the O(kept*raw) struct-equality re-match that recovers track
// identity. The test uses it as the reference the index-carrying path
// must reproduce exactly.
func rematchNMS(raw []Detection) []Detection {
	scored := make([]geom.Scored, len(raw))
	for i, r := range raw {
		scored[i] = r.Scored
	}
	kept := geom.NMS(scored, NMSIoU)
	out := make([]Detection, 0, len(kept))
	for _, k := range kept {
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
// candidate accumulation and NMS; what remains is the returned
// Detections slice (callers own and may retain it) plus small
// per-result bookkeeping. Budget 4 leaves headroom over the current 1-2
// while still catching any reintroduced per-candidate churn.
func TestDetectAllocBudget(t *testing.T) {
	d := MustNew("resnet50")
	f := crowdedFrame(0)
	d.DetectFull(f) // warm the scratch buffers
	n := testing.AllocsPerRun(100, func() {
		f.Index = (f.Index + 1) % 50
		d.DetectFull(f)
	})
	if n > 4 {
		t.Errorf("DetectFull allocates %v per frame after warm-up, budget is 4", n)
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
