package tracker

// Edge-case and failure-injection tests for the tracker: degenerate
// boxes, duplicate detections, adversarial flicker, and load.

import (
	"testing"

	"repro/internal/geom"
)

func TestDegenerateDetectionIgnored(t *testing.T) {
	tr := New(DefaultConfig(), 1242, 375)
	tr.Observe([]geom.Scored{{Box: geom.Box{X1: 100, Y1: 100, X2: 100, Y2: 150}, Score: 0.9, Class: 0}})
	if len(tr.Tracks()) != 0 {
		t.Fatal("zero-width detection spawned a track")
	}
}

func TestDuplicateDetectionsSpawnSeparateTracks(t *testing.T) {
	// Two identical detections in one frame: one matches (or spawns),
	// the other must not silently vanish into the same track — the
	// Hungarian assignment uses each detection at most once.
	tr := New(DefaultConfig(), 1242, 375)
	d0 := det(100, 100, 40, 30, 0)
	tr.Observe([]geom.Scored{d0, d0})
	if len(tr.Tracks()) != 2 {
		t.Fatalf("duplicate detections produced %d tracks, want 2", len(tr.Tracks()))
	}
	// On the next frame with a single detection, exactly one track
	// matches; the other decays away.
	tr.Observe([]geom.Scored{det(102, 100, 40, 30, 0)})
	tr.Observe(nil)
	tr.Observe(nil)
	tr.Observe(nil)
	if n := len(tr.Tracks()); n > 1 {
		t.Fatalf("%d tracks survive, want <= 1", n)
	}
}

func TestFlickeringDetectionSurvivesWithConfidence(t *testing.T) {
	// A detection appearing every other frame: the adaptive confidence
	// scheme (+1 match / -1 miss) should keep the track alive once
	// established.
	tr := New(DefaultConfig(), 1242, 375)
	alivePortion := 0
	for fi := 0; fi < 40; fi++ {
		if fi%2 == 0 {
			tr.Observe([]geom.Scored{det(100+float64(fi), 100, 40, 30, 0)})
		} else {
			tr.Observe(nil)
		}
		if fi >= 4 && len(tr.Tracks()) > 0 {
			alivePortion++
		}
	}
	if alivePortion < 30 {
		t.Fatalf("flickering object tracked in only %d/36 established frames", alivePortion)
	}
	// Identity must be stable: exactly one track ID used.
	if tr.nextID > 3 {
		t.Fatalf("flicker fragmented into %d track IDs", tr.nextID-1)
	}
}

func TestManySimultaneousObjects(t *testing.T) {
	// 100 well-separated objects per frame: association must stay
	// correct and not explode combinatorially.
	tr := New(DefaultConfig(), 10000, 10000)
	mk := func(off float64) []geom.Scored {
		var dets []geom.Scored
		for i := 0; i < 100; i++ {
			x := float64(i%10)*900 + 50 + off
			y := float64(i/10)*900 + 50
			dets = append(dets, geom.Scored{Box: geom.NewBoxCenter(x, y, 60, 40), Score: 0.9, Class: i % 2})
		}
		return dets
	}
	tr.Observe(mk(0))
	if len(tr.Tracks()) != 100 {
		t.Fatalf("tracks = %d, want 100", len(tr.Tracks()))
	}
	tr.Observe(mk(5))
	if len(tr.Tracks()) != 100 {
		t.Fatalf("after second frame tracks = %d, want 100 (no fragmentation)", len(tr.Tracks()))
	}
}

func TestNegativeCoordinatesHandled(t *testing.T) {
	// Predictions can extrapolate off-frame; observing boxes partially
	// outside the frame must not corrupt state.
	tr := New(DefaultConfig(), 1242, 375)
	tr.Observe([]geom.Scored{{Box: geom.NewBox(-20, 100, 40, 150), Score: 0.9, Class: 0}})
	tr.Observe([]geom.Scored{{Box: geom.NewBox(-30, 100, 30, 150), Score: 0.9, Class: 0}})
	for _, tk := range tr.Tracks() {
		if tk.S <= 0 {
			t.Fatal("track width went non-positive")
		}
	}
	// Prediction moves further out and is eventually filtered.
	preds := tr.PredictAppend(nil)
	for _, p := range preds {
		if !p.Box.Valid() {
			t.Fatal("invalid prediction box")
		}
	}
}

func TestShrinkingTrackClampsWidth(t *testing.T) {
	// A rapidly shrinking object: the predicted width S+VS could go
	// negative; PredictedBox must clamp it.
	tr := New(DefaultConfig(), 1242, 375)
	tr.Observe([]geom.Scored{det(100, 100, 60, 40, 0)})
	tr.Observe([]geom.Scored{det(100, 100, 20, 14, 0)})
	tr.Observe([]geom.Scored{det(100, 100, 4, 3, 0)})
	for _, tk := range tr.Tracks() {
		b := tk.PredictedBox()
		if b.Width() < 0 || !b.Valid() {
			t.Fatalf("invalid predicted box %v", b)
		}
	}
}
