package tracker

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// driftScene synthesizes one frame of detections for a persistent set
// of objects drifting right, so tracks match frame after frame — the
// steady state the allocation budget is about.
func driftScene(frame int, n int) []geom.Scored {
	rng := rand.New(rand.NewSource(int64(frame)*131 + 7))
	dets := make([]geom.Scored, 0, n)
	for i := 0; i < n; i++ {
		x := 50 + float64(i)*90 + 2*float64(frame) + rng.Float64()
		y := 100 + 20*float64(i%3) + rng.Float64()
		dets = append(dets, geom.Scored{
			Box:   geom.NewBox(x, y, x+60, y+45),
			Score: 0.6 + 0.4*rng.Float64(),
			Class: i % 2,
		})
	}
	return dets
}

// TestObserveAllocBudget pins the steady-state allocation budget of the
// per-frame tracker update: once every object is tracked and the
// scratch buffers are warm, Observe + PredictAppend allocate nothing.
func TestObserveAllocBudget(t *testing.T) {
	trk := New(DefaultConfig(), 1242, 375)
	for f := 0; f < 10; f++ { // establish tracks, warm scratch
		trk.Observe(driftScene(f, 8))
	}
	scenes := make([][]geom.Scored, 101) // pre-generate: only tracker work is measured
	for i := range scenes {
		scenes[i] = driftScene(10+i, 8)
	}
	pred := make([]geom.Scored, 0, 16)
	i := 0
	n := testing.AllocsPerRun(100, func() {
		trk.Observe(scenes[i%len(scenes)])
		pred = trk.PredictAppend(pred[:0])
		i++
	})
	if n > 0 {
		t.Errorf("steady-state Observe+PredictAppend allocates %v per frame, want 0", n)
	}
	if len(pred) == 0 {
		t.Fatal("no predictions in steady state; scene not tracked")
	}
}

// refPredict states Section 4.1's prediction rule directly over the
// live tracks: drop too-narrow and boundary-chopped predictions and
// score each by its normalized confidence.
func refPredict(trk *Tracker, frameW, frameH float64) []geom.Scored {
	cfg := trk.cfg
	frame := geom.NewBox(0, 0, frameW, frameH)
	var out []geom.Scored
	for _, tr := range trk.Tracks() {
		b := tr.PredictedBox()
		if b.Width() < cfg.MinPredWidth || geom.CoverFraction(b, frame) < cfg.MinVisibleFrac {
			continue
		}
		out = append(out, geom.Scored{Box: b, Score: math.Min(1, float64(tr.Confidence)/float64(cfg.MaxConfidence)), Class: tr.Class})
	}
	return out
}

// TestPredictAppendMatchesPredict pins PredictAppend against refPredict,
// appended after a prefix that it must leave alone.
func TestPredictAppendMatchesPredict(t *testing.T) {
	trk := New(DefaultConfig(), 1242, 375)
	for f := 0; f < 6; f++ {
		trk.Observe(driftScene(f, 5))
	}
	want := refPredict(trk, 1242, 375)
	prefix := geom.Scored{Score: -1}
	got := trk.PredictAppend(append(make([]geom.Scored, 0, 2), prefix))
	if len(got) != 1+len(want) || got[0] != prefix {
		t.Fatalf("PredictAppend returned %v, want the prefix then %d predictions", got, len(want))
	}
	for i := range want {
		if got[1+i] != want[i] {
			t.Fatalf("prediction %d differs: %+v vs %+v", i, got[1+i], want[i])
		}
	}
}

// TestObserveMatchesReference replays the same detection stream through
// the optimized tracker and a fresh reference run and requires
// identical track state frame by frame — the flat cost matrix, solver
// reuse and sorted class iteration must not change a single float.
func TestObserveMatchesReference(t *testing.T) {
	run := func() []Track {
		trk := New(DefaultConfig(), 1242, 375)
		for f := 0; f < 40; f++ {
			n := 4 + f%5 // churn the population so tracks spawn and die
			trk.Observe(driftScene(f, n))
		}
		out := make([]Track, 0, len(trk.Tracks()))
		for _, tr := range trk.Tracks() {
			c := *tr
			out = append(out, c)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("track counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("track %d state differs across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestRecycledSpawnMatchesFresh pins the free list: a spawn that reuses
// a Track discarded with stale state — by a miss or by Reset — holds
// exactly the value a spawn on a fresh tracker holds.
func TestRecycledSpawnMatchesFresh(t *testing.T) {
	for _, motion := range []MotionModel{ExponentialDecay, Kalman} {
		cfg := DefaultConfig()
		cfg.Motion = motion
		spawn := []geom.Scored{det(300, 150, 50, 40, 1)}

		// Dirty a track with matches and motion, then discard it by
		// misses; the spawn on the next frame takes its struct.
		trk := New(cfg, 1242, 375)
		for f := 0; f < 3; f++ {
			trk.Observe([]geom.Scored{det(100+7*float64(f), 100, 40, 30, 0)})
		}
		old := trk.Tracks()[0]
		for len(trk.Tracks()) > 0 {
			trk.Observe(nil)
		}
		trk.Observe(spawn)
		fresh := New(cfg, 1242, 375)
		fresh.nextID = trk.Tracks()[0].ID
		fresh.Observe(spawn)
		if trk.Tracks()[0] != old {
			t.Fatalf("motion %d: spawn after a discard did not reuse the discarded Track", motion)
		}
		if *trk.Tracks()[0] != *fresh.Tracks()[0] {
			t.Fatalf("motion %d: recycled spawn %+v, fresh spawn %+v", motion, *trk.Tracks()[0], *fresh.Tracks()[0])
		}

		// Reset hands the live track back; the next spawn reuses it
		// with ID 1, as a fresh tracker's first spawn has.
		trk.Observe(spawn)
		live := trk.Tracks()[0]
		trk.Reset(cfg, 1242, 375)
		trk.Observe(spawn)
		fresh = New(cfg, 1242, 375)
		fresh.Observe(spawn)
		if trk.Tracks()[0] != live {
			t.Fatalf("motion %d: spawn after Reset did not reuse the live Track", motion)
		}
		if *trk.Tracks()[0] != *fresh.Tracks()[0] {
			t.Fatalf("motion %d: spawn after Reset %+v, fresh spawn %+v", motion, *trk.Tracks()[0], *fresh.Tracks()[0])
		}
	}
}

// TestChurnAllocFree pins spawns at zero allocations once the free list
// is warm: a population that grows and shrinks every few frames spawns
// and discards tracks, and recycles every one of them. Each run replays
// a whole cycle, so a single allocating spawn in it fails the test.
func TestChurnAllocFree(t *testing.T) {
	trk := New(DefaultConfig(), 1242, 375)
	scenes := make([][]geom.Scored, 40)
	for f := range scenes {
		scenes[f] = driftScene(f%10, 4+3*(f/5%2))
	}
	cycle := func() {
		for _, s := range scenes {
			trk.Observe(s)
		}
	}
	cycle() // warms scratch and free list
	spawned := trk.nextID
	if n := testing.AllocsPerRun(5, cycle); n != 0 {
		t.Errorf("Observe under spawn churn allocates %v per cycle after warm-up, want 0", n)
	}
	if trk.nextID == spawned {
		t.Fatal("no track spawned during the measured cycles; the scene does not churn")
	}
}
