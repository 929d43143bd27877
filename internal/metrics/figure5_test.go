package metrics

// TestFigure5WorkedExample reproduces the paper's Figure 5 numeric
// illustration verbatim: one ground-truth object spanning 5 frames,
// 7 detections of which 3 are true detections and 4 are false
// positives, 2 false negatives; only the false negative in frame 0
// counts towards delay. Expected: recall 3/5, precision 3/7, delay 1.

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func TestFigure5WorkedExample(t *testing.T) {
	gtBox := geom.NewBox(100, 100, 180, 160)
	farBox := func(i int) geom.Box {
		x := 400 + float64(i)*120
		return geom.NewBox(x, 250, x+80, 310)
	}

	seq := dataset.Sequence{ID: "fig5", Width: 1000, Height: 400, FPS: 10}
	for f := 0; f < 5; f++ {
		seq.Frames = append(seq.Frames, dataset.Frame{Index: f, Labeled: true,
			Objects: []dataset.Object{{TrackID: 1, Class: dataset.Car, Box: gtBox.Translate(float64(f)*4, 0)}}})
	}
	ds := &dataset.Dataset{Classes: []dataset.Class{dataset.Car}, Sequences: []dataset.Sequence{seq}}

	// Frame 0: false negative (no detection on the object) + 1 FP.
	// Frames 1-3: true detections; frames 1 and 3 also carry FPs.
	// Frame 4: false negative + 1 FP.
	mk := func(box geom.Box) geom.Scored { return geom.Scored{Box: box, Score: 0.9, Class: 0} }
	frames := [][]geom.Scored{
		{mk(farBox(0))},
		{mk(gtBox.Translate(4, 0)), mk(farBox(1))},
		{mk(gtBox.Translate(8, 0))},
		{mk(gtBox.Translate(12, 0)), mk(farBox(2))},
		{mk(farBox(3))},
	}
	dets := Detections{"fig5": frames}

	ev := evaluate(ds, dets, dataset.Hard)
	r := indexOf(ev, dataset.Car)
	tp, fp := len(r.tp), len(r.fp) // every record scores >= 0
	prec, rec := precision(tp, fp), float64(tp)/float64(r.numGT)
	if math.Abs(rec-3.0/5.0) > 1e-9 {
		t.Fatalf("recall = %v, want 3/5", rec)
	}
	if math.Abs(prec-3.0/7.0) > 1e-9 {
		t.Fatalf("precision = %v, want 3/7", prec)
	}

	tracks := ev.tracks
	if len(tracks) != 1 {
		t.Fatalf("tracks = %d", len(tracks))
	}
	if delay := tracks[0].DelayAt(0); delay != 1 {
		t.Fatalf("delay = %v, want 1 (only the frame-0 miss counts)", delay)
	}
}
