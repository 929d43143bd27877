package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestMaskEmpty(t *testing.T) {
	m := NewMask(1242, 375, 8)
	if m.CoveredCells() != 0 || m.CoveredFraction() != 0 {
		t.Fatal("fresh mask should be empty")
	}
}

func TestMaskFullFrame(t *testing.T) {
	m := NewMask(100, 100, 10)
	m.AddBox(NewBox(0, 0, 100, 100))
	if got := m.CoveredFraction(); got != 1 {
		t.Fatalf("full-frame coverage = %v, want 1", got)
	}
}

func TestMaskHalfFrame(t *testing.T) {
	m := NewMask(100, 100, 10)
	m.AddBox(NewBox(0, 0, 50, 100))
	if got := m.CoveredFraction(); got != 0.5 {
		t.Fatalf("half coverage = %v, want 0.5", got)
	}
}

func TestMaskOverlapNotDoubleCounted(t *testing.T) {
	m := NewMask(100, 100, 10)
	m.AddBox(NewBox(0, 0, 60, 100))
	m.AddBox(NewBox(40, 0, 100, 100)) // overlaps 20px band
	if got := m.CoveredFraction(); got != 1 {
		t.Fatalf("union coverage = %v, want 1", got)
	}
}

func TestMaskBoxCoverage(t *testing.T) {
	m := NewMask(100, 100, 10)
	m.AddBox(NewBox(0, 0, 50, 100))
	if got := m.BoxCoverage(NewBox(10, 10, 40, 40)); got != 1 {
		t.Fatalf("inside coverage = %v, want 1", got)
	}
	if got := m.BoxCoverage(NewBox(60, 60, 90, 90)); got != 0 {
		t.Fatalf("outside coverage = %v, want 0", got)
	}
	half := m.BoxCoverage(NewBox(30, 0, 70, 100))
	if half <= 0.3 || half >= 0.7 {
		t.Fatalf("straddling coverage = %v, want ~0.5", half)
	}
}

func TestMaskClipsOutOfFrame(t *testing.T) {
	m := NewMask(100, 100, 10)
	m.AddBox(NewBox(-50, -50, -10, -10)) // fully outside
	if m.CoveredCells() != 0 {
		t.Fatal("out-of-frame box marked cells")
	}
	m.AddBox(NewBox(-50, -50, 10, 10)) // partially inside
	if m.CoveredCells() == 0 {
		t.Fatal("partially-inside box marked nothing")
	}
	if got := m.BoxCoverage(NewBox(-10, -10, -1, -1)); got != 0 {
		t.Fatalf("coverage of out-of-frame box = %v", got)
	}
}

func TestMaskReset(t *testing.T) {
	m := NewMask(100, 100, 10)
	m.AddBox(NewBox(0, 0, 100, 100))
	m.Reset()
	if m.CoveredCells() != 0 {
		t.Fatal("reset did not clear")
	}
}

// The grid mask approximates the exact union area from above (cells are
// conservative: any touched cell counts fully).
func TestMaskApproximatesUnionArea(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const W, H = 1242, 375
	for trial := 0; trial < 20; trial++ {
		m := NewMask(W, H, 4)
		var boxes []Box
		for i := 0; i < 15; i++ {
			x := rng.Float64() * (W - 100)
			y := rng.Float64() * (H - 80)
			b := NewBox(x, y, x+30+rng.Float64()*70, y+20+rng.Float64()*60)
			boxes = append(boxes, b)
			m.AddBox(b)
		}
		exact := UnionArea(boxes) / (W * H)
		approx := m.CoveredFraction()
		if approx < exact-1e-9 {
			t.Fatalf("trial %d: mask %.4f under exact %.4f", trial, approx, exact)
		}
		if approx > exact+0.05 {
			t.Fatalf("trial %d: mask %.4f too far above exact %.4f", trial, approx, exact)
		}
	}
}

func TestUnionAreaKnownValues(t *testing.T) {
	if got := UnionArea(nil); got != 0 {
		t.Fatalf("UnionArea(nil) = %v", got)
	}
	a := NewBox(0, 0, 10, 10)
	b := NewBox(5, 0, 15, 10)
	if got := UnionArea([]Box{a, b}); got != 150 {
		t.Fatalf("union area = %v, want 150", got)
	}
	if got := UnionArea([]Box{a, a, a}); got != 100 {
		t.Fatalf("self-union area = %v, want 100", got)
	}
	// Disjoint boxes sum.
	c := NewBox(100, 100, 110, 110)
	if got := UnionArea([]Box{a, c}); got != 200 {
		t.Fatalf("disjoint union = %v, want 200", got)
	}
}

func TestGreedyMergeMergesWhenProfitable(t *testing.T) {
	// Fixed per-region cost makes merging always profitable.
	cost := func(b Box) float64 { return 1 + b.Area()/1e6 }
	boxes := []Box{NewBox(0, 0, 10, 10), NewBox(20, 0, 30, 10), NewBox(0, 20, 10, 30)}
	out := AppendGreedyMerge(nil, boxes, cost)
	if len(out) != 1 {
		t.Fatalf("merged to %d regions, want 1", len(out))
	}
}

func TestGreedyMergeKeepsDistantBoxesSeparate(t *testing.T) {
	// Pure-area cost: merging is never strictly profitable, so distant
	// boxes stay separate.
	cost := func(b Box) float64 { return b.Area() }
	boxes := []Box{NewBox(0, 0, 10, 10), NewBox(500, 500, 510, 510)}
	out := AppendGreedyMerge(nil, boxes, cost)
	if len(out) != 2 {
		t.Fatalf("merged distant boxes: %v", out)
	}
}

func TestGreedyMergeDropsEmptyAndPreservesCoverage(t *testing.T) {
	cost := func(b Box) float64 { return 1 + b.Area()/1e4 }
	boxes := []Box{{}, NewBox(0, 0, 10, 10), NewBox(5, 5, 20, 20)}
	out := AppendGreedyMerge(nil, boxes, cost)
	for _, b := range boxes[1:] {
		covered := false
		for _, o := range out {
			if o.ContainsBox(b) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("input box %v not covered by output %v", b, out)
		}
	}
}

// refAddBox is the per-cell AddBox the word-parallel span kernel
// replaced, kept as the equivalence reference.
func refAddBox(m *Mask, b Box) {
	x0, y0, x1, y1, ok := m.cellRange(b)
	if !ok {
		return
	}
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			i := cy*m.nx + cx
			m.bits[i/64] |= 1 << uint(i%64)
		}
	}
}

// refBoxCoverage is the per-cell BoxCoverage reference.
func refBoxCoverage(m *Mask, b Box) float64 {
	x0, y0, x1, y1, ok := m.cellRange(b)
	if !ok {
		return 0
	}
	covered, total := 0, 0
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			total++
			i := cy*m.nx + cx
			if m.bits[i/64]&(1<<uint(i%64)) != 0 {
				covered++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// checkSpanStep adds b to both masks (m through the span kernel, ref
// per cell), first comparing the coverage each reports for b, then the
// resulting bitsets word for word.
func checkSpanStep(t testing.TB, m, ref *Mask, b Box) {
	t.Helper()
	got, want := m.BoxCoverage(b), refBoxCoverage(ref, b)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%vx%v cell %v: BoxCoverage(%v) = %v, per-cell reference %v", m.w, m.h, m.cell, b, got, want)
	}
	m.AddBox(b)
	refAddBox(ref, b)
	for i := range ref.bits {
		if m.bits[i] != ref.bits[i] {
			t.Fatalf("%vx%v cell %v: after AddBox(%v) word %d = %#x, per-cell reference %#x", m.w, m.h, m.cell, b, i, m.bits[i], ref.bits[i])
		}
	}
}

// The span kernels set the same bits and count the same cells as the
// per-cell loops, on grids whose width is not a multiple of 64 (KITTI
// 1242x375 at cell 8 is 156x47) and for boxes that are clipped, one
// cell, the full frame, or cross a word boundary.
func TestMaskSpanMatchesPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	frames := [][2]float64{{1242, 375}, {2048, 1024}, {100, 100}, {64, 3}, {1, 1}}
	for _, fr := range frames {
		for _, cell := range []float64{4, 8, 13} {
			W, H := fr[0], fr[1]
			m, ref := NewMask(W, H, cell), NewMask(W, H, cell)
			special := []Box{
				NewBox(-40, -40, 2*cell, 2*cell),                  // clipped top-left
				NewBox(W-cell, H-cell, W+100, H+100),              // clipped bottom-right
				NewBox(-10, -10, -1, -1),                          // off frame
				NewBox(3*cell, 2*cell, 3*cell+1, 2*cell+1),        // one cell
				NewBox(62*cell+1, cell, 66*cell-1, 3*cell),        // crosses bit 64 in a row
				NewBox(0, 5*cell, W, 5*cell+1),                    // one full row
				NewBox(cell*0.5, cell*0.5, cell*0.5, cell*0.5+10), // zero width
			}
			for _, b := range special {
				checkSpanStep(t, m, ref, b)
			}
			for i := 0; i < 60; i++ {
				x, y := rng.Float64()*W*1.2-0.1*W, rng.Float64()*H*1.2-0.1*H
				checkSpanStep(t, m, ref, NewBox(x, y, x+rng.Float64()*W/3, y+rng.Float64()*H/3))
			}
			checkSpanStep(t, m, ref, NewBox(0, 0, W, H)) // full frame
			if m.CoveredFraction() != 1 {
				t.Fatalf("%vx%v cell %v: full-frame box left coverage %v", W, H, cell, m.CoveredFraction())
			}
		}
	}
}

// FuzzMaskSpan checks the span kernels against the per-cell reference
// for arbitrary frame, cell and box values: the first box is added to
// an empty mask, then the second box's coverage is compared on the
// partly filled mask before it is added too.
func FuzzMaskSpan(f *testing.F) {
	f.Add(1242.0, 375.0, 8.0, 10.0, 20.0, 600.0, 90.0, 500.0, 0.0, 520.0, 375.0)
	f.Add(100.0, 100.0, 13.0, -50.0, -50.0, 150.0, 150.0, 0.0, 0.0, 1.0, 1.0)
	f.Add(640.0, 8.0, 4.0, 252.0, 0.0, 260.0, 4.0, 255.9, 0.0, 256.1, 8.0)
	f.Add(37.5, 19.25, 0.0, math.NaN(), 1.0, 2.0, 3.0, 1.0, math.Inf(-1), math.Inf(1), 5.0)
	f.Fuzz(func(t *testing.T, w, h, cell, x1, y1, x2, y2, qx1, qy1, qx2, qy2 float64) {
		c := cell
		if c <= 0 {
			c = DefaultCell
		}
		for _, v := range []float64{w, h, c} {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Skip("frame and cell must be finite and positive")
			}
		}
		if math.Ceil(w/c)*math.Ceil(h/c) > 1<<16 {
			t.Skip("grid too large")
		}
		m, ref := NewMask(w, h, cell), NewMask(w, h, cell)
		checkSpanStep(t, m, ref, NewBox(x1, y1, x2, y2))
		checkSpanStep(t, m, ref, NewBox(qx1, qy1, qx2, qy2))
	})
}

// The region-path mask kernels run per box per frame and must not
// allocate.
func TestMaskKernelsAllocFree(t *testing.T) {
	m := NewMask(1242, 375, 8)
	b := NewBox(300.5, 120.25, 741, 302)
	if a := testing.AllocsPerRun(100, func() { m.AddBox(b) }); a != 0 {
		t.Fatalf("AddBox allocs = %v, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { _ = m.BoxCoverage(b) }); a != 0 {
		t.Fatalf("BoxCoverage allocs = %v, want 0", a)
	}
}

// kittiBoxes returns n seeded car-to-truck sized boxes on a KITTI frame,
// some of them reaching past its edges.
func kittiBoxes(n int, seed int64) []Box {
	rng := rand.New(rand.NewSource(seed))
	boxes := make([]Box, n)
	for i := range boxes {
		x, y := rng.Float64()*1242-40, rng.Float64()*375-20
		boxes[i] = NewBox(x, y, x+30+rng.Float64()*170, y+20+rng.Float64()*110)
	}
	return boxes
}

var coverageSink float64

func BenchmarkMaskAddBox(b *testing.B) {
	m := NewMask(1242, 375, DefaultCell)
	boxes := kittiBoxes(64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AddBox(boxes[i&63])
	}
}

func BenchmarkMaskBoxCoverage(b *testing.B) {
	m := NewMask(1242, 375, DefaultCell)
	for _, box := range kittiBoxes(16, 2) {
		m.AddBox(box)
	}
	boxes := kittiBoxes(64, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coverageSink = m.BoxCoverage(boxes[i&63])
	}
}

// UnionArea returns the exact area of the union of the boxes via a sweep
// over the distinct x-intervals: the exact reference the grid-mask
// approximation is checked against.
func UnionArea(boxes []Box) float64 {
	events := make([]float64, 0, 2*len(boxes))
	for _, b := range boxes {
		if b.Empty() {
			continue
		}
		events = append(events, b.X1, b.X2)
	}
	if len(events) == 0 {
		return 0
	}
	sortFloats(events)
	total := 0.0
	for i := 0; i+1 < len(events); i++ {
		x0, x1 := events[i], events[i+1]
		if x1 <= x0 {
			continue
		}
		// Collect y-intervals of boxes spanning this x-slab and sum
		// their merged length.
		var ys []yiv
		for _, b := range boxes {
			if b.X1 <= x0 && b.X2 >= x1 && !b.Empty() {
				ys = append(ys, yiv{b.Y1, b.Y2})
			}
		}
		total += mergedLength(ys) * (x1 - x0)
	}
	return total
}

type yiv struct{ lo, hi float64 }

func mergedLength(ivs []yiv) float64 {
	if len(ivs) == 0 {
		return 0
	}
	// Insertion sort by lo; interval counts here are small.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].lo < ivs[j-1].lo; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	total := 0.0
	curLo, curHi := ivs[0].lo, ivs[0].hi
	for _, iv := range ivs[1:] {
		if iv.lo > curHi {
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
			continue
		}
		if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	return total + (curHi - curLo)
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
