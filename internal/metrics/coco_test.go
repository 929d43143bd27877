package metrics

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func TestMAPAtIoUMonotoneInThreshold(t *testing.T) {
	// A slightly-offset detection passes loose IoU thresholds but fails
	// strict ones, so AP must be non-increasing in the threshold.
	gt := car(1, 100, 100, 80, 60)
	ds := oneFrameDataset(gt)
	shifted := geom.NewBox(106, 104, 186, 164)
	dets := Detections{"s": {{{Box: shifted, Score: 0.9, Class: 0}}}}

	prev := math.Inf(1)
	for _, iou := range COCOIoUs {
		v := MAPAtIoU(ds, dets, dataset.Hard, iou)
		if v > prev+1e-9 {
			t.Fatalf("mAP increased with stricter IoU at %v: %v > %v", iou, v, prev)
		}
		prev = v
	}
	// Loose threshold accepts, strict rejects — mAP for Car class is
	// averaged with Pedestrian (no GT -> AP 0), so compare halves.
	if lo := MAPAtIoU(ds, dets, dataset.Hard, 0.5); lo != 0.5 {
		t.Fatalf("mAP@0.5 = %v, want 0.5 (Car 1.0, Pedestrian 0)", lo)
	}
	if hi := MAPAtIoU(ds, dets, dataset.Hard, 0.95); hi != 0 {
		t.Fatalf("mAP@0.95 = %v, want 0", hi)
	}
}

func TestCOCOMAPAveragesGrid(t *testing.T) {
	gt := car(1, 100, 100, 80, 60)
	ds := oneFrameDataset(gt)
	// Exact detection: passes every threshold.
	dets := Detections{"s": {{d(100, 100, 80, 60, 0.9, 0)}}}
	coco, perIoU := COCOMAP(ds, dets, dataset.Hard)
	if len(perIoU) != 10 {
		t.Fatalf("grid size = %d", len(perIoU))
	}
	// Car AP 1 at every threshold, Pedestrian 0 (no GT): mean 0.5.
	if math.Abs(coco-0.5) > 1e-9 {
		t.Fatalf("COCO mAP = %v, want 0.5", coco)
	}
	for iou, v := range perIoU {
		if math.Abs(v-0.5) > 1e-9 {
			t.Fatalf("mAP@%v = %v", iou, v)
		}
	}
}

func TestCOCOBelowVOCForNoisyBoxes(t *testing.T) {
	// Jittered detections: the COCO average over strict thresholds must
	// be below the VOC-style single-threshold evaluation.
	seq := dataset.Sequence{ID: "s", Width: 1000, Height: 500, FPS: 10}
	for f := 0; f < 30; f++ {
		seq.Frames = append(seq.Frames, dataset.Frame{Index: f, Labeled: true, Objects: []dataset.Object{
			car(1, 100, 100, 80, 60),
		}})
	}
	ds := &dataset.Dataset{Classes: []dataset.Class{dataset.Car}, Sequences: []dataset.Sequence{seq}}
	frames := make([][]geom.Scored, 30)
	for f := 0; f < 30; f++ {
		off := float64(f%5) * 2 // 0..8 px offset
		frames[f] = []geom.Scored{d(100+off, 100+off, 80, 60, 0.9, 0)}
	}
	dets := Detections{"s": frames}
	voc := MAPAtIoU(ds, dets, dataset.Hard, 0.5)
	coco, _ := COCOMAP(ds, dets, dataset.Hard)
	if !(coco < voc) {
		t.Fatalf("COCO %v should be below VOC@0.5 %v for noisy boxes", coco, voc)
	}
}

func TestExitDelayBasic(t *testing.T) {
	ds, dets := delayDataset() // track frames 2..9, detected 5..9
	tr := &evaluate(ds, dets, dataset.Hard).tracks[0]
	// Last detection in frame 9 = exit frame: exit delay 0.
	if got := tr.ExitDelayAt(0.5); got != 0 {
		t.Fatalf("exit delay = %v, want 0", got)
	}
	// Above every score: never detected -> full lifetime.
	if got := tr.ExitDelayAt(0.99); got != 8 {
		t.Fatalf("undetected exit delay = %v, want 8", got)
	}
}

func TestExitDelayLostEarly(t *testing.T) {
	// Track alive frames 0..9, detected only frames 0..3: exit delay 6.
	seq := dataset.Sequence{ID: "s", Width: 1000, Height: 500, FPS: 10}
	for f := 0; f < 10; f++ {
		seq.Frames = append(seq.Frames, dataset.Frame{Index: f, Labeled: true, Objects: []dataset.Object{
			car(3, 100, 100, 80, 60),
		}})
	}
	ds := &dataset.Dataset{Classes: []dataset.Class{dataset.Car}, Sequences: []dataset.Sequence{seq}}
	frames := make([][]geom.Scored, 10)
	for f := 0; f < 4; f++ {
		frames[f] = []geom.Scored{d(100, 100, 80, 60, 0.9, 0)}
	}
	dets := Detections{"s": frames}
	tracks := evaluate(ds, dets, dataset.Hard).tracks
	if got := tracks[0].ExitDelayAt(0.5); got != 6 {
		t.Fatalf("exit delay = %v, want 6", got)
	}
	mean, perClass, _ := MeanExitDelayAtPrecision(ds, dets, dataset.Hard, 0.8)
	if mean != 6 || perClass[dataset.Car] != 6 {
		t.Fatalf("mean exit delay = %v / %v", mean, perClass)
	}
}

func TestMeanExitDelayNoTracks(t *testing.T) {
	mean, perClass := Fold([]dataset.Class{dataset.Car}, nil).meanExitDelay(0.5)
	if !math.IsNaN(mean) || len(perClass) != 0 {
		t.Fatalf("empty exit delay = %v / %v", mean, perClass)
	}
}
