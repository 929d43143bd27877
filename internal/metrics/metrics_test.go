package metrics

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// oneFrameDataset builds a single labeled frame with the given objects.
func oneFrameDataset(objs ...dataset.Object) *dataset.Dataset {
	return &dataset.Dataset{
		Name:    "t",
		Classes: []dataset.Class{dataset.Car, dataset.Pedestrian},
		Sequences: []dataset.Sequence{{
			ID: "s", Width: 1000, Height: 500, FPS: 10,
			Frames: []dataset.Frame{{Index: 0, Labeled: true, Objects: objs}},
		}},
	}
}

// indexOf returns class c's index in the evaluation.
func indexOf(ev *Evaluation, c dataset.Class) *classIndex {
	return &ev.index[classPos(ev.classes, c)]
}

func car(id int, x, y, w, h float64) dataset.Object {
	return dataset.Object{TrackID: id, Class: dataset.Car, Box: geom.NewBox(x, y, x+w, y+h)}
}

func d(x, y, w, h, score float64, class int) geom.Scored {
	return geom.Scored{Box: geom.NewBox(x, y, x+w, y+h), Score: score, Class: class}
}

func TestPerfectDetectionAP(t *testing.T) {
	ds := oneFrameDataset(car(1, 100, 100, 80, 60), car(2, 400, 100, 80, 60))
	dets := Detections{"s": {{
		d(100, 100, 80, 60, 0.9, 0),
		d(400, 100, 80, 60, 0.8, 0),
	}}}
	ap := indexOf(evaluate(ds, dets, dataset.Hard), dataset.Car).ap()
	if math.Abs(ap-1.0) > 1e-9 {
		t.Fatalf("perfect AP = %v, want 1", ap)
	}
}

func TestMissedDetectionLowersAP(t *testing.T) {
	ds := oneFrameDataset(car(1, 100, 100, 80, 60), car(2, 400, 100, 80, 60))
	dets := Detections{"s": {{d(100, 100, 80, 60, 0.9, 0)}}}
	ap := indexOf(evaluate(ds, dets, dataset.Hard), dataset.Car).ap()
	// Recall caps at 0.5: recall points 0..0.5 have precision 1, the
	// rest 0 -> AP = 6/11.
	want := 6.0 / 11
	if math.Abs(ap-want) > 1e-9 {
		t.Fatalf("AP = %v, want %v", ap, want)
	}
}

func TestFalsePositiveLowersAP(t *testing.T) {
	ds := oneFrameDataset(car(1, 100, 100, 80, 60))
	// FP scored above the TP: precision at recall 1.0 is 0.5.
	dets := Detections{"s": {{
		d(700, 300, 80, 60, 0.95, 0),
		d(100, 100, 80, 60, 0.9, 0),
	}}}
	ap := indexOf(evaluate(ds, dets, dataset.Hard), dataset.Car).ap()
	want := 0.5 // max precision at every recall target is 1/2
	if math.Abs(ap-want) > 1e-9 {
		t.Fatalf("AP = %v, want %v", ap, want)
	}
}

func TestLowIoUDetectionIsFPandFN(t *testing.T) {
	ds := oneFrameDataset(car(1, 100, 100, 80, 60))
	// Offset box with IoU ~ 0.32 < 0.7: both an FP and a miss.
	dets := Detections{"s": {{d(140, 130, 80, 60, 0.9, 0)}}}
	if ap := indexOf(evaluate(ds, dets, dataset.Hard), dataset.Car).ap(); ap != 0 {
		t.Fatalf("AP = %v, want 0", ap)
	}
}

func TestPedestrianUsesLooserIoU(t *testing.T) {
	ped := dataset.Object{TrackID: 1, Class: dataset.Pedestrian, Box: geom.NewBox(100, 100, 130, 190)}
	ds := oneFrameDataset(ped)
	// Shifted box with IoU ~ 0.55: valid for Pedestrian (0.5) but would
	// fail the Car threshold (0.7).
	shifted := geom.NewBox(105, 110, 135, 200)
	if iou := geom.IoU(ped.Box, shifted); iou < 0.5 || iou > 0.7 {
		t.Fatalf("test setup: IoU = %v, want in (0.5, 0.7)", iou)
	}
	dets := Detections{"s": {{{Box: shifted, Score: 0.9, Class: int(dataset.Pedestrian)}}}}
	if ap := indexOf(evaluate(ds, dets, dataset.Hard), dataset.Pedestrian).ap(); math.Abs(ap-1) > 1e-9 {
		t.Fatalf("pedestrian AP = %v, want 1", ap)
	}
}

func TestClassConfusionNotMatched(t *testing.T) {
	ds := oneFrameDataset(car(1, 100, 100, 80, 60))
	dets := Detections{"s": {{d(100, 100, 80, 60, 0.9, int(dataset.Pedestrian))}}}
	ev := evaluate(ds, dets, dataset.Hard)
	if ap := indexOf(ev, dataset.Car).ap(); ap != 0 {
		t.Fatalf("car AP = %v, want 0 (wrong-class detection)", ap)
	}
	// The pedestrian detection is an FP for its own class... but there
	// is no pedestrian GT, so AP is 0 with no ground truth.
	if indexOf(ev, dataset.Pedestrian).numGT != 0 {
		t.Fatal("phantom pedestrian GT")
	}
}

func TestDontCareIgnored(t *testing.T) {
	// A largely-occluded car is don't-care at Moderate: detecting it
	// must not count as FP, and missing it must not count as FN.
	occluded := car(1, 100, 100, 80, 60)
	occluded.Occlusion = dataset.LargelyOccluded
	visible := car(2, 400, 100, 80, 60)
	ds := oneFrameDataset(occluded, visible)

	dets := Detections{"s": {{
		d(100, 100, 80, 60, 0.95, 0), // hits the don't-care object
		d(400, 100, 80, 60, 0.9, 0),  // hits the real object
	}}}
	r := indexOf(evaluate(ds, dets, dataset.Moderate), dataset.Car)
	if r.numGT != 1 {
		t.Fatalf("NumGT = %d, want 1 (occluded is don't-care)", r.numGT)
	}
	if ap := r.ap(); math.Abs(ap-1) > 1e-9 {
		t.Fatalf("AP = %v, want 1 (don't-care hit must not be FP)", ap)
	}
	// At Hard the occluded car becomes real ground truth.
	if indexOf(evaluate(ds, dets, dataset.Hard), dataset.Car).numGT != 2 {
		t.Fatal("Hard should count both cars")
	}
}

func TestTinyDetectionIgnoredNotFP(t *testing.T) {
	ds := oneFrameDataset(car(1, 100, 100, 80, 60))
	dets := Detections{"s": {{
		d(100, 100, 80, 60, 0.9, 0),
		d(700, 300, 30, 15, 0.95, 0), // 15px tall: below Hard's 25px minimum
	}}}
	if ap := indexOf(evaluate(ds, dets, dataset.Hard), dataset.Car).ap(); math.Abs(ap-1) > 1e-9 {
		t.Fatalf("AP = %v, want 1 (tiny detection must be ignored)", ap)
	}
}

func TestMAPAveragesClasses(t *testing.T) {
	ped := dataset.Object{TrackID: 2, Class: dataset.Pedestrian, Box: geom.NewBox(600, 100, 640, 220)}
	ds := oneFrameDataset(car(1, 100, 100, 80, 60), ped)
	dets := Detections{"s": {{
		d(100, 100, 80, 60, 0.9, 0), // perfect car
		// pedestrian missed
	}}}
	mAP, perClass := MAP(ds, dets, dataset.Hard)
	if math.Abs(perClass[dataset.Car]-1) > 1e-9 || perClass[dataset.Pedestrian] != 0 {
		t.Fatalf("per-class AP = %v", perClass)
	}
	if math.Abs(mAP-0.5) > 1e-9 {
		t.Fatalf("mAP = %v, want 0.5", mAP)
	}
}

func TestPrecisionRecallAt(t *testing.T) {
	tp, fp := []float64{0.9, 0.7}, []float64{0.8, 0.6}
	p, rec := precisionRecallAt(tp, fp, 4, 0.75)
	if math.Abs(p-0.5) > 1e-9 || math.Abs(rec-0.25) > 1e-9 {
		t.Fatalf("P/R at 0.75 = %v/%v", p, rec)
	}
	p, rec = precisionRecallAt(tp, fp, 4, 0.0)
	if math.Abs(p-0.5) > 1e-9 || math.Abs(rec-0.5) > 1e-9 {
		t.Fatalf("P/R at 0 = %v/%v", p, rec)
	}
	p, rec = precisionRecallAt(tp, fp, 4, 0.99)
	if p != 1 || rec != 0 {
		t.Fatalf("P/R above all scores = %v/%v, want vacuous 1/0", p, rec)
	}
}

// delayDataset: one track entering at frame 2 (eligible immediately),
// detections from frame 5.
func delayDataset() (*dataset.Dataset, Detections) {
	seq := dataset.Sequence{ID: "s", Width: 1000, Height: 500, FPS: 10}
	for f := 0; f < 10; f++ {
		fr := dataset.Frame{Index: f, Labeled: true}
		if f >= 2 {
			fr.Objects = []dataset.Object{car(7, 100+float64(f)*5, 100, 80, 60)}
		}
		seq.Frames = append(seq.Frames, fr)
	}
	ds := &dataset.Dataset{Name: "t", Classes: []dataset.Class{dataset.Car}, Sequences: []dataset.Sequence{seq}}

	frames := make([][]geom.Scored, 10)
	for f := 5; f < 10; f++ {
		frames[f] = []geom.Scored{d(100+float64(f)*5, 100, 80, 60, 0.9, 0)}
	}
	return ds, Detections{"s": frames}
}

func TestDelayBasic(t *testing.T) {
	ds, dets := delayDataset()
	tracks := evaluate(ds, dets, dataset.Hard).tracks
	if len(tracks) != 1 {
		t.Fatalf("tracks = %d", len(tracks))
	}
	tr := &tracks[0]
	if tr.FirstEligible != 2 || tr.LastFrame != 9 {
		t.Fatalf("span = [%d,%d], want [2,9]", tr.FirstEligible, tr.LastFrame)
	}
	if delay := tr.DelayAt(0.5); delay != 3 {
		t.Fatalf("delay = %v, want 3 (appears at 2, detected at 5)", delay)
	}
	// Above the detection scores: never detected -> full lifetime.
	if delay := tr.DelayAt(0.95); delay != 8 {
		t.Fatalf("undetected delay = %v, want 8", delay)
	}
}

func TestDelayNeverEligibleExcluded(t *testing.T) {
	// A 10px-tall object is never Hard-eligible.
	seq := dataset.Sequence{ID: "s", Width: 1000, Height: 500, FPS: 10,
		Frames: []dataset.Frame{{Index: 0, Labeled: true, Objects: []dataset.Object{
			{TrackID: 1, Class: dataset.Car, Box: geom.NewBox(0, 0, 30, 10)},
		}}}}
	ds := &dataset.Dataset{Classes: []dataset.Class{dataset.Car}, Sequences: []dataset.Sequence{seq}}
	mean, perClass := evaluate(ds, Detections{}, dataset.Hard).MeanDelay(0.5)
	if !math.IsNaN(mean) || len(perClass) != 0 {
		t.Fatalf("never-eligible track not excluded: %v %v", mean, perClass)
	}
}

func TestThresholdForMeanPrecision(t *testing.T) {
	classes := []dataset.Class{dataset.Car}
	ev := &Evaluation{classes: classes, index: []classIndex{
		newClassIndex([]float64{0.9, 0.8, 0.7, 0.5}, []float64{0.6, 0.4, 0.3, 0.2}, 10),
	}}
	tr := ev.Threshold(0.8)
	// At t=0.5: 4 TP, 1 FP -> precision 0.8. Any lower includes more FPs.
	if math.Abs(tr-0.5) > 1e-9 {
		t.Fatalf("threshold = %v, want 0.5", tr)
	}
	// Unreachable precision falls back to the best available.
	ev.index[0] = newClassIndex([]float64{0.5}, []float64{0.9}, 10)
	tr = ev.Threshold(0.99)
	if math.Abs(tr-0.5) > 1e-9 {
		t.Fatalf("fallback threshold = %v, want 0.5 (max precision 0.5)", tr)
	}
	// No records at all: the threshold is 1.
	if tr := Fold(classes, nil).Threshold(0.8); tr != 1 {
		t.Fatalf("empty threshold = %v, want 1", tr)
	}
}

func TestMeanDelayAtPrecision(t *testing.T) {
	ds, dets := delayDataset()
	mean, perClass, thresh := MeanDelayAtPrecision(ds, dets, dataset.Hard, 0.8)
	if mean != 3 {
		t.Fatalf("mD@0.8 = %v, want 3", mean)
	}
	if perClass[dataset.Car] != 3 {
		t.Fatalf("per-class = %v", perClass)
	}
	if thresh > 0.9 {
		t.Fatalf("threshold = %v, too high", thresh)
	}
}

func TestDelayRecallCurve(t *testing.T) {
	ds, dets := delayDataset()
	pts := evaluate(ds, dets, dataset.Hard).Curve(dataset.Car, []float64{0.5, 0.8, 1.0})
	if len(pts) == 0 {
		t.Fatal("empty curve")
	}
	for _, p := range pts {
		if p.Precision < 0.5 {
			t.Fatalf("point below requested precision: %+v", p)
		}
		if p.Recall < 0 || p.Recall > 1 {
			t.Fatalf("recall out of range: %+v", p)
		}
		if p.Delay < 0 {
			t.Fatalf("negative delay: %+v", p)
		}
	}
}

func TestUnlabeledFramesSkipped(t *testing.T) {
	seq := dataset.Sequence{ID: "s", Width: 1000, Height: 500, FPS: 10,
		Frames: []dataset.Frame{
			{Index: 0, Labeled: false, Objects: []dataset.Object{car(1, 100, 100, 80, 60)}},
			{Index: 1, Labeled: true, Objects: []dataset.Object{car(1, 105, 100, 80, 60)}},
		}}
	ds := &dataset.Dataset{Classes: []dataset.Class{dataset.Car}, Sequences: []dataset.Sequence{seq}}
	// Detection only on the unlabeled frame: must contribute nothing.
	dets := Detections{"s": {
		{d(100, 100, 80, 60, 0.9, 0)},
		nil,
	}}
	r := indexOf(evaluate(ds, dets, dataset.Hard), dataset.Car)
	if r.numGT != 1 || !r.empty() {
		t.Fatalf("unlabeled frame leaked into eval: GT=%d records=%d", r.numGT, len(r.tp)+len(r.fp))
	}
}

func TestPRCurveMonotoneRecall(t *testing.T) {
	r := newClassIndex([]float64{0.9, 0.85, 0.7, 0.5}, []float64{0.8, 0.65, 0.4, 0.3}, 5)
	curve := r.curve()
	for i := 1; i < len(curve); i++ {
		if curve[i].Recall < curve[i-1].Recall {
			t.Fatalf("recall not monotone at %d", i)
		}
		if curve[i].Threshold > curve[i-1].Threshold {
			t.Fatalf("thresholds not descending at %d", i)
		}
	}
}

func TestAPEmptyRecords(t *testing.T) {
	r := newClassIndex(nil, nil, 0)
	if ap := r.ap(); ap != 0 {
		t.Fatalf("empty AP = %v", ap)
	}
}

// A warm Matcher matches a frame without allocating: its scratch is
// reused, and records land in capacity sized before the frame walk.
func TestMatcherFrameAllocFree(t *testing.T) {
	occluded := car(3, 600, 100, 80, 60)
	occluded.Occlusion = dataset.LargelyOccluded
	ped := dataset.Object{TrackID: 4, Class: dataset.Pedestrian, Box: geom.NewBox(800, 100, 840, 220)}
	ds := oneFrameDataset(car(1, 100, 100, 80, 60), car(2, 400, 100, 80, 60), occluded, ped)
	dets := []geom.Scored{
		d(100, 100, 80, 60, 0.9, 0), d(402, 100, 80, 60, 0.9, 0), d(101, 100, 80, 60, 0.8, 0),
		d(600, 100, 80, 60, 0.7, 0), d(700, 300, 30, 15, 0.6, 0), d(900, 300, 60, 60, 0.5, 0),
		d(800, 100, 40, 120, 0.9, 1), d(805, 105, 40, 120, 0.4, 1),
	}
	seq := &ds.Sequences[0]
	var m Matcher
	sh := m.Sequence(seq, [][]geom.Scored{dets}, ds.Classes, dataset.Hard)
	objects := seq.Frames[0].Objects
	allocs := testing.AllocsPerRun(100, func() {
		for ci := range m.tp {
			m.tp[ci], m.fp[ci] = m.tp[ci][:0], m.fp[ci][:0]
		}
		m.frame(objects, m.objSlot, m.objElig, dets, ds.Classes, dataset.Hard, 0, &sh)
	})
	if allocs != 0 {
		t.Fatalf("frame allocates %v times per call, want 0", allocs)
	}
	if n := len(m.tp[0]) + len(m.fp[0]) + len(m.tp[1]) + len(m.fp[1]); n == 0 {
		t.Fatal("no records: the frame matched nothing")
	}
}
