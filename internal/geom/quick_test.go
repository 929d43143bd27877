package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randBox derives a plausible in-frame box from four uint16 seeds.
func randBox(a, b, c, d uint16) Box {
	x := float64(a%1200) + 1
	y := float64(b%360) + 1
	w := float64(c%200) + 2
	h := float64(d%150) + 2
	return NewBox(x, y, x+w, y+h)
}

// Property: expanding a box never reduces IoU with itself pre-expansion
// below the area ratio, and the expanded box always contains the
// original.
func TestExpandContainsOriginal(t *testing.T) {
	f := func(a, b, c, d uint16, m uint8) bool {
		box := randBox(a, b, c, d)
		ex := box.Expand(float64(m % 60))
		return ex.ContainsBox(box)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: clipping is idempotent and the result lies within frame.
func TestClipIdempotent(t *testing.T) {
	f := func(a, b, c, d uint16) bool {
		box := randBox(a, b, c, d).Translate(-200, -100)
		clipped := box.Clip(1242, 375)
		if clipped != clipped.Clip(1242, 375) {
			return false
		}
		frame := NewBox(0, 0, 1242, 375)
		return clipped.Empty() || frame.ContainsBox(clipped)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a mask containing a box reports full coverage for any box
// inside it.
func TestMaskCoverageContainment(t *testing.T) {
	f := func(a, b, c, d uint16) bool {
		box := randBox(a, b, c, d).Clip(1242, 375)
		if box.Empty() {
			return true
		}
		m := NewMask(1242, 375, 8)
		m.AddBox(box)
		return m.BoxCoverage(box) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mask covered fraction is monotone under adding boxes.
func TestMaskMonotoneUnderUnion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMask(1242, 375, 8)
		prev := 0.0
		for i := 0; i < 10; i++ {
			m.AddBox(randBox(uint16(rng.Uint32()), uint16(rng.Uint32()), uint16(rng.Uint32()), uint16(rng.Uint32())))
			cur := m.CoveredFraction()
			if cur < prev {
				return false
			}
			prev = cur
		}
		return prev <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: NMS output size never exceeds input size, and filtering at
// a higher threshold keeps a subset.
func TestNMSAndFilterProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var dets []Scored
		for i := 0; i < 30; i++ {
			dets = append(dets, Scored{
				Box:   randBox(uint16(rng.Uint32()), uint16(rng.Uint32()), uint16(rng.Uint32()), uint16(rng.Uint32())),
				Score: rng.Float64(),
				Class: rng.Intn(2),
			})
		}
		kept := keptDets(dets, 0.5)
		if len(kept) > len(dets) {
			return false
		}
		lo := FilterScoreAppend(nil, kept, 0.3)
		hi := FilterScoreAppend(nil, kept, 0.7)
		if len(hi) > len(lo) {
			return false
		}
		// hi must be a subset of lo.
		for _, h := range hi {
			found := false
			for _, l := range lo {
				if l == h {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: AppendGreedyMerge never increases the estimated total cost.
func TestGreedyMergeNeverWorse(t *testing.T) {
	cost := func(b Box) float64 { return 0.5 + b.Area()/1e5 }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var boxes []Box
		for i := 0; i < 8; i++ {
			boxes = append(boxes, randBox(uint16(rng.Uint32()), uint16(rng.Uint32()), uint16(rng.Uint32()), uint16(rng.Uint32())))
		}
		before := 0.0
		for _, b := range boxes {
			before += cost(b)
		}
		after := 0.0
		for _, b := range AppendGreedyMerge(nil, boxes, cost) {
			after += cost(b)
		}
		return after <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
