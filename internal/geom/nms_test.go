package geom

import (
	"math/rand"
	"sort"
	"testing"
)

// keptDets returns the detections NMSBuffer.Indices keeps, in its order.
func keptDets(dets []Scored, iouThresh float64) []Scored {
	var b NMSBuffer
	var kept []Scored
	for _, i := range b.Indices(dets, iouThresh) {
		kept = append(kept, dets[i])
	}
	return kept
}

// refNMS states the suppression rule directly: a stable sort by
// descending score, then a same-class IoU test against every kept box.
func refNMS(dets []Scored, iouThresh float64) []Scored {
	sorted := append([]Scored(nil), dets...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })
	var kept []Scored
	for _, d := range sorted {
		suppressed := false
		for _, k := range kept {
			if k.Class == d.Class && IoU(k.Box, d.Box) > iouThresh {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

func TestNMSSuppressesOverlaps(t *testing.T) {
	dets := []Scored{
		{Box: NewBox(0, 0, 10, 10), Score: 0.9, Class: 0},
		{Box: NewBox(1, 1, 11, 11), Score: 0.8, Class: 0}, // overlaps first
		{Box: NewBox(50, 50, 60, 60), Score: 0.7, Class: 0},
	}
	out := keptDets(dets, 0.5)
	if len(out) != 2 {
		t.Fatalf("kept %d, want 2: %v", len(out), out)
	}
	if out[0].Score != 0.9 || out[1].Score != 0.7 {
		t.Fatalf("wrong survivors: %v", out)
	}
}

func TestNMSKeepsDifferentClasses(t *testing.T) {
	dets := []Scored{
		{Box: NewBox(0, 0, 10, 10), Score: 0.9, Class: 0},
		{Box: NewBox(0, 0, 10, 10), Score: 0.8, Class: 1},
	}
	if out := keptDets(dets, 0.5); len(out) != 2 {
		t.Fatalf("class-aware NMS suppressed across classes: %v", out)
	}
}

func TestNMSEmpty(t *testing.T) {
	var b NMSBuffer
	if out := b.Indices(nil, 0.5); out != nil {
		t.Fatalf("Indices(nil) = %v", out)
	}
}

func TestNMSOutputSortedByScore(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var dets []Scored
	for i := 0; i < 100; i++ {
		x := rng.Float64() * 500
		y := rng.Float64() * 300
		dets = append(dets, Scored{
			Box:   NewBox(x, y, x+20+rng.Float64()*30, y+20+rng.Float64()*30),
			Score: rng.Float64(),
			Class: rng.Intn(2),
		})
	}
	out := keptDets(dets, 0.4)
	for i := 1; i < len(out); i++ {
		if out[i].Score > out[i-1].Score {
			t.Fatalf("output not sorted at %d", i)
		}
	}
	// No two kept boxes of the same class may exceed the threshold.
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[i].Class == out[j].Class && IoU(out[i].Box, out[j].Box) > 0.4 {
				t.Fatalf("kept overlapping pair %d,%d IoU=%v", i, j, IoU(out[i].Box, out[j].Box))
			}
		}
	}
}

// crowdedDets builds a dense random detection set with many same-class
// overlaps, the worst case for suppression bookkeeping.
func crowdedDets(n int, seed int64) []Scored {
	rng := rand.New(rand.NewSource(seed))
	dets := make([]Scored, 0, n)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 200 // tight frame: heavy overlap
		y := rng.Float64() * 120
		dets = append(dets, Scored{
			Box:   NewBox(x, y, x+15+rng.Float64()*40, y+15+rng.Float64()*40),
			Score: rng.Float64(),
			Class: rng.Intn(3),
		})
	}
	return dets
}

// TestNMSIndicesMatchesNMS pins Indices against refNMS on crowded
// frames: same survivors, same order, and the indices actually point at
// the kept inputs.
func TestNMSIndicesMatchesNMS(t *testing.T) {
	var buf NMSBuffer
	for seed := int64(1); seed <= 5; seed++ {
		dets := crowdedDets(150, seed)
		want := refNMS(dets, 0.5)
		idx := buf.Indices(dets, 0.5)
		if len(idx) != len(want) {
			t.Fatalf("seed %d: kept %d indices, reference kept %d", seed, len(idx), len(want))
		}
		for k, i := range idx {
			if dets[i] != want[k] {
				t.Fatalf("seed %d: index %d -> %v, reference kept %v at position %d", seed, i, dets[i], want[k], k)
			}
		}
	}
}

// TestNMSIndicesZeroAlloc pins the allocation budget of the reused
// buffer: after warm-up, suppression allocates nothing per frame.
func TestNMSIndicesZeroAlloc(t *testing.T) {
	var buf NMSBuffer
	dets := crowdedDets(120, 3)
	buf.Indices(dets, 0.5) // warm the scratch
	if n := testing.AllocsPerRun(50, func() { buf.Indices(dets, 0.5) }); n > 0 {
		t.Errorf("NMSBuffer.Indices allocates %v per run after warm-up, want 0", n)
	}
}

// TestReuseMask pins the recycle-vs-reallocate rule and the word-zeroed
// reset: same geometry reuses the allocation empty, any geometry change
// returns a fresh mask.
func TestReuseMask(t *testing.T) {
	m := NewMask(640, 480, 8)
	m.AddBox(NewBox(0, 0, 64, 64))
	if m.CoveredCells() == 0 {
		t.Fatal("setup: mask empty after AddBox")
	}
	r := ReuseMask(m, 640, 480, 8)
	if r != m {
		t.Error("same geometry did not reuse the mask")
	}
	if r.CoveredCells() != 0 {
		t.Error("reused mask not reset")
	}
	if ReuseMask(m, 640, 480, 16) == m {
		t.Error("cell-size change reused the mask")
	}
	if ReuseMask(m, 320, 480, 8) == m {
		t.Error("frame-size change reused the mask")
	}
	if ReuseMask(nil, 640, 480, 8) == nil {
		t.Error("nil mask did not allocate")
	}
	if n := testing.AllocsPerRun(50, func() { ReuseMask(m, 640, 480, 8) }); n > 0 {
		t.Errorf("ReuseMask allocates %v per run on the reuse path, want 0", n)
	}
}

func TestFilterScore(t *testing.T) {
	dets := []Scored{{Score: 0.1}, {Score: 0.5}, {Score: 0.9}}
	out := FilterScoreAppend(nil, dets, 0.5)
	if len(out) != 2 || out[0].Score != 0.5 || out[1].Score != 0.9 {
		t.Fatalf("FilterScoreAppend = %v", out)
	}
	// A prefix in dst is kept, and a reused buffer allocates nothing.
	buf := append(make([]Scored, 0, 4), Scored{Score: 7})
	app := FilterScoreAppend(buf, dets, 0.5)
	if len(app) != 3 || app[0].Score != 7 || app[1].Score != 0.5 || app[2].Score != 0.9 {
		t.Fatalf("FilterScoreAppend with prefix = %v", app)
	}
	if n := testing.AllocsPerRun(50, func() { FilterScoreAppend(buf[:1], dets, 0.5) }); n > 0 {
		t.Errorf("FilterScoreAppend into a reused buffer allocates %v per run, want 0", n)
	}
}
