package detector

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/video"
)

func testFrame(objs ...dataset.Object) Frame {
	return Frame{SeqID: "seq-test", Index: 5, Width: 1242, Height: 375, Objects: objs}
}

func bigCar(id int) dataset.Object {
	return dataset.Object{TrackID: id, Class: dataset.Car, Box: geom.NewBox(400, 150, 560, 250)}
}

func TestProfilesValidate(t *testing.T) {
	for _, name := range ProfileNames() {
		p, err := ProfileFor(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestProfileUnknown(t *testing.T) {
	if _, err := ProfileFor("lenet"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := New("lenet"); err == nil {
		t.Fatal("expected error")
	}
}

func TestDetectDeterministic(t *testing.T) {
	d := MustNew("resnet50")
	f := testFrame(bigCar(1), bigCar(2))
	a := d.DetectFull(f)
	b := d.DetectFull(f)
	if len(a.Detections) != len(b.Detections) {
		t.Fatal("nondeterministic detection count")
	}
	for i := range a.Detections {
		if a.Detections[i] != b.Detections[i] {
			t.Fatal("nondeterministic detection")
		}
	}
}

func TestBigObjectAlmostAlwaysDetected(t *testing.T) {
	d := MustNew("resnet50")
	detected, frames := 0, 200
	for fi := 0; fi < frames; fi++ {
		f := Frame{SeqID: "s", Index: fi, Width: 1242, Height: 375,
			Objects: []dataset.Object{bigCar(1)}}
		r := d.DetectFull(f)
		for _, det := range r.Detections {
			if det.TrackID == 1 {
				detected++
				break
			}
		}
	}
	if frac := float64(detected) / float64(frames); frac < 0.9 {
		t.Fatalf("100px-tall clear car detected in only %.0f%% of frames", 100*frac)
	}
}

func TestTinyObjectRarelyDetected(t *testing.T) {
	// Average over many track identities so the per-track persistent
	// bias washes out and only the size-dependent recall remains.
	d := MustNew("resnet10c")
	detected, total := 0, 0
	for id := 1; id <= 20; id++ {
		tiny := dataset.Object{TrackID: id, Class: dataset.Pedestrian, Box: geom.NewBox(600, 180, 604, 190)}
		for fi := 0; fi < 50; fi++ {
			total++
			f := Frame{SeqID: "s", Index: fi, Width: 1242, Height: 375,
				Objects: []dataset.Object{tiny}}
			for _, det := range d.DetectFull(f).Detections {
				if det.TrackID == id {
					detected++
				}
			}
		}
	}
	if frac := float64(detected) / float64(total); frac > 0.3 {
		t.Fatalf("10px object detected %.0f%% of the time by the weakest model", 100*frac)
	}
}

// The model ordering must show up as a recall ordering on small objects
// — the backbone quality ladder of Table 4. Recall is averaged over many
// track identities so per-track persistent biases wash out. The curves
// are intentionally close for established objects (the paper's cascade
// loses almost nothing), so the ladder is probed at 24px where the
// midpoint separation matters.
func TestModelRecallOrdering(t *testing.T) {
	recall := func(name string) float64 {
		d := MustNew(name)
		hit, total := 0, 0
		for id := 1; id <= 30; id++ {
			obj := dataset.Object{TrackID: id, Class: dataset.Car, Box: geom.NewBox(500, 170, 539, 194)} // 24px tall
			for fi := 0; fi < 40; fi++ {
				total++
				f := Frame{SeqID: "order", Index: fi, Width: 1242, Height: 375,
					Objects: []dataset.Object{obj}}
				for _, det := range d.DetectFull(f).Detections {
					if det.TrackID == id {
						hit++
					}
				}
			}
		}
		return float64(hit) / float64(total)
	}
	names := []string{"resnet50", "resnet18", "resnet10a", "resnet10c"}
	vals := make([]float64, len(names))
	for i, n := range names {
		vals[i] = recall(n)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1]+0.03 {
			t.Fatalf("recall ordering violated: %v -> %v", names, vals)
		}
	}
	if vals[0] < vals[len(vals)-1]+0.03 {
		t.Fatalf("resnet50 (%.2f) should beat resnet10c (%.2f) on 24px cars", vals[0], vals[len(vals)-1])
	}
}

func TestOcclusionReducesDetection(t *testing.T) {
	d := MustNew("resnet10a")
	base := dataset.Object{TrackID: 1, Class: dataset.Car, Box: geom.NewBox(500, 150, 580, 200)}
	occluded := base
	occluded.Occlusion = dataset.LargelyOccluded
	count := func(o dataset.Object) int {
		hit := 0
		for fi := 0; fi < 300; fi++ {
			f := Frame{SeqID: "occ", Index: fi, Width: 1242, Height: 375,
				Objects: []dataset.Object{o}}
			for _, det := range d.DetectFull(f).Detections {
				if det.TrackID == 1 {
					hit++
				}
			}
		}
		return hit
	}
	clear, occ := count(base), count(occluded)
	if occ >= clear {
		t.Fatalf("occlusion did not reduce detections: clear=%d occluded=%d", clear, occ)
	}
}

func TestTrackBiasIsPersistent(t *testing.T) {
	// With a strong track bias, per-track detection rates should be
	// bimodal: variance across tracks far exceeds binomial noise.
	d := MustNew("resnet10b")
	const tracks, frames = 40, 120
	// A marginal object: near the model's midpoint.
	var rates []float64
	for id := 1; id <= tracks; id++ {
		hit := 0
		for fi := 0; fi < frames; fi++ {
			obj := dataset.Object{TrackID: id, Class: dataset.Car, Box: geom.NewBox(500, 170, 555, 204)}
			f := Frame{SeqID: "bias", Index: fi, Width: 1242, Height: 375,
				Objects: []dataset.Object{obj}}
			for _, det := range d.DetectFull(f).Detections {
				if det.TrackID == id {
					hit++
				}
			}
		}
		rates = append(rates, float64(hit)/frames)
	}
	mean, varSum := 0.0, 0.0
	for _, r := range rates {
		mean += r
	}
	mean /= float64(len(rates))
	for _, r := range rates {
		varSum += (r - mean) * (r - mean)
	}
	variance := varSum / float64(len(rates))
	binomial := mean * (1 - mean) / frames
	if variance < 4*binomial {
		t.Fatalf("track-rate variance %.4f not >> binomial %.5f; persistent bias missing", variance, binomial)
	}
}

func TestRegionRestrictionGates(t *testing.T) {
	d := MustNew("resnet50")
	car := bigCar(1)
	f := testFrame(car)

	// Mask covering the object: detection outcome matches full-frame
	// modulo the region boost (which can only add detections).
	cover := geom.NewMask(1242, 375, 8)
	cover.AddBox(car.Box.Expand(30))
	rCover := d.DetectRegions(f, cover, 5)

	// Mask elsewhere: the object cannot be detected.
	miss := geom.NewMask(1242, 375, 8)
	miss.AddBox(geom.NewBox(0, 0, 100, 100))
	rMiss := d.DetectRegions(f, miss, 5)
	for _, det := range rMiss.Detections {
		if det.TrackID == 1 {
			t.Fatal("object detected outside the selected regions")
		}
	}

	full := d.DetectFull(f)
	fullHas := false
	for _, det := range full.Detections {
		if det.TrackID == 1 {
			fullHas = true
		}
	}
	coverHas := false
	for _, det := range rCover.Detections {
		if det.TrackID == 1 {
			coverHas = true
		}
	}
	if fullHas && !coverHas {
		t.Fatal("full-frame detection lost under covering mask (region boost should only help)")
	}
}

func TestRegionOpsCheaperThanFull(t *testing.T) {
	d := MustNew("resnet50")
	car := bigCar(1)
	f := testFrame(car)
	mask := geom.NewMask(1242, 375, 8)
	mask.AddBox(car.Box.Expand(30))
	r := d.DetectRegions(f, mask, 3)
	full := d.DetectFull(f)
	if r.Ops >= full.Ops/3 {
		t.Fatalf("region ops %.2e not much cheaper than full %.2e", r.Ops, full.Ops)
	}
	if r.Coverage <= 0 || r.Coverage >= 0.5 {
		t.Fatalf("coverage = %v, want small positive", r.Coverage)
	}
}

func TestFalsePositiveRateScales(t *testing.T) {
	d := MustNew("resnet10c") // highest FP rate
	countFP := func(mask *geom.Mask) int {
		n := 0
		for fi := 0; fi < 300; fi++ {
			f := Frame{SeqID: "fp", Index: fi, Width: 1242, Height: 375}
			var dets []Detection
			if mask == nil {
				dets = d.DetectFull(f).Detections
			} else {
				dets = d.DetectRegions(f, mask, 0).Detections
			}
			for _, det := range dets {
				if det.TrackID < 0 {
					n++
				}
			}
		}
		return n
	}
	full := countFP(nil)
	small := geom.NewMask(1242, 375, 8)
	small.AddBox(geom.NewBox(0, 0, 200, 200))
	masked := countFP(small)
	if full == 0 {
		t.Fatal("no false positives generated at all")
	}
	if masked >= full/2 {
		t.Fatalf("FPs did not scale with coverage: full=%d masked=%d", full, masked)
	}
	// Expected count sanity: rate 3.2/frame over 300 frames.
	if full < 300 || full > 2000 {
		t.Fatalf("FP count %d wildly off configured rate", full)
	}
}

func TestFalsePositivesInsideMask(t *testing.T) {
	d := MustNew("resnet10c")
	mask := geom.NewMask(1242, 375, 8)
	region := geom.NewBox(100, 100, 500, 300)
	mask.AddBox(region)
	for fi := 0; fi < 200; fi++ {
		f := Frame{SeqID: "fploc", Index: fi, Width: 1242, Height: 375}
		for _, det := range d.DetectRegions(f, mask, 0).Detections {
			if det.TrackID < 0 && mask.BoxCoverage(det.Box) < MinCoverage {
				t.Fatalf("frame %d: FP %v outside mask", fi, det.Box)
			}
		}
	}
}

func TestConfidenceCorrelatesWithSize(t *testing.T) {
	d := MustNew("resnet50")
	meanConf := func(box geom.Box) float64 {
		sum, n := 0.0, 0
		for fi := 0; fi < 300; fi++ {
			f := Frame{SeqID: "conf", Index: fi, Width: 1242, Height: 375,
				Objects: []dataset.Object{{TrackID: 1, Class: dataset.Car, Box: box}}}
			for _, det := range d.DetectFull(f).Detections {
				if det.TrackID == 1 {
					sum += det.Score
					n++
				}
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	big := meanConf(geom.NewBox(400, 100, 650, 260))   // 160px tall
	small := meanConf(geom.NewBox(600, 180, 630, 199)) // 19px tall
	if big <= small {
		t.Fatalf("confidence not size-correlated: big=%.3f small=%.3f", big, small)
	}
	if big < 0.7 {
		t.Fatalf("large-object confidence %.3f too low", big)
	}
}

func TestLocalizationNoiseBounded(t *testing.T) {
	d := MustNew("resnet50")
	car := bigCar(1)
	good := 0
	total := 0
	for fi := 0; fi < 300; fi++ {
		f := Frame{SeqID: "loc", Index: fi, Width: 1242, Height: 375,
			Objects: []dataset.Object{car}}
		for _, det := range d.DetectFull(f).Detections {
			if det.TrackID == 1 {
				total++
				if geom.IoU(det.Box, car.Box) >= 0.7 {
					good++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no detections")
	}
	if frac := float64(good) / float64(total); frac < 0.8 {
		t.Fatalf("only %.0f%% of resnet50 boxes reach IoU 0.7", 100*frac)
	}
}

func TestJitterIsWorseForWeakModels(t *testing.T) {
	car := bigCar(1)
	meanIoU := func(name string) float64 {
		d := MustNew(name)
		sum, n := 0.0, 0
		for fi := 0; fi < 300; fi++ {
			f := Frame{SeqID: "jit", Index: fi, Width: 1242, Height: 375,
				Objects: []dataset.Object{car}}
			for _, det := range d.DetectFull(f).Detections {
				if det.TrackID == 1 {
					sum += geom.IoU(det.Box, car.Box)
					n++
				}
			}
		}
		return sum / float64(n)
	}
	if meanIoU("resnet50") <= meanIoU("resnet10c") {
		t.Fatal("resnet50 localization should beat resnet10c")
	}
}

func TestDetectionsSortedAndNMSed(t *testing.T) {
	d := MustNew("resnet10a")
	p := video.KITTIPreset()
	p.NumSequences = 1
	p.FramesPerSeq = 50
	ds := video.Generate(p, 3)
	seq := &ds.Sequences[0]
	for fi := range seq.Frames {
		f := Frame{SeqID: seq.ID, Index: fi, Width: seq.Width, Height: seq.Height,
			Objects: seq.Frames[fi].Objects}
		r := d.DetectFull(f)
		for i := 1; i < len(r.Detections); i++ {
			if r.Detections[i].Score > r.Detections[i-1].Score {
				t.Fatalf("frame %d: output not score-sorted", fi)
			}
		}
		for i := range r.Detections {
			for j := i + 1; j < len(r.Detections); j++ {
				a, b := r.Detections[i], r.Detections[j]
				if a.Class == b.Class && geom.IoU(a.Box, b.Box) > NMSIoU {
					t.Fatalf("frame %d: NMS left overlap %.2f", fi, geom.IoU(a.Box, b.Box))
				}
			}
		}
	}
}

func TestFullFrameOpsMatchZoo(t *testing.T) {
	d := MustNew("resnet10b")
	f := testFrame()
	r := d.DetectFull(f)
	want := 7.5e9
	if math.Abs(r.Ops-want)/want > 1e-6 {
		t.Fatalf("resnet10b full-frame ops = %.3e, want %.3e", r.Ops, want)
	}
}

// TestHashPrefixIdentity pins the prefix folding perceive relies on:
// hashKey folds its words left to right, so extending a folded prefix
// with mix gives the full key bit for bit — for the (model, sequence)
// state extended by a track (the bias key), the (model, sequence,
// frame) state extended by a track (each object's state) and that
// state extended by a purpose tag (the detect and localization keys).
func TestHashPrefixIdentity(t *testing.T) {
	w := uint64(42)
	word := func() uint64 {
		w = mix(w, 0x6a09e667f3bcc909)
		return w
	}
	tags := []uint64{tagDetect, tagBias, tagLocX, tagLocY, tagLocW, tagLocH}
	for i := 0; i < 1000; i++ {
		model, seq, frame, track := word(), word(), word(), word()
		if i%4 == 0 {
			frame, track = uint64(i), uint64(i%37)
		}
		seqKey := hashKey(model, seq)
		if got, want := mix(mix(seqKey, track), tagBias), hashKey(model, seq, track, tagBias); got != want {
			t.Fatalf("bias key %#x, full hashKey %#x", got, want)
		}
		frameKey := mix(seqKey, frame)
		if want := hashKey(model, seq, frame); frameKey != want {
			t.Fatalf("frame key %#x, full hashKey %#x", frameKey, want)
		}
		objKey := mix(frameKey, track)
		if want := hashKey(model, seq, frame, track); objKey != want {
			t.Fatalf("object key %#x, full hashKey %#x", objKey, want)
		}
		for _, tag := range tags {
			if got, want := mix(objKey, tag), hashKey(model, seq, frame, track, tag); got != want {
				t.Fatalf("tag %#x: object key extended to %#x, full hashKey %#x", tag, got, want)
			}
		}
	}
}
