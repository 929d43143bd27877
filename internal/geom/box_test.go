package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewBoxNormalizesCorners(t *testing.T) {
	b := NewBox(10, 20, 2, 4)
	if b.X1 != 2 || b.Y1 != 4 || b.X2 != 10 || b.Y2 != 20 {
		t.Fatalf("corners not normalized: %v", b)
	}
}

func TestBoxBasics(t *testing.T) {
	b := NewBox(0, 0, 4, 2)
	if b.Width() != 4 || b.Height() != 2 {
		t.Fatalf("width/height = %v/%v", b.Width(), b.Height())
	}
	if b.Area() != 8 {
		t.Fatalf("area = %v, want 8", b.Area())
	}
	cx, cy := b.Center()
	if cx != 2 || cy != 1 {
		t.Fatalf("center = (%v,%v)", cx, cy)
	}
	if b.AspectRatio() != 0.5 {
		t.Fatalf("aspect = %v, want 0.5", b.AspectRatio())
	}
	if b.Empty() {
		t.Fatal("non-degenerate box reported empty")
	}
}

func TestBoxDegenerate(t *testing.T) {
	b := Box{X1: 3, Y1: 3, X2: 3, Y2: 7}
	if !b.Empty() {
		t.Fatal("zero-width box should be empty")
	}
	if b.Area() != 0 {
		t.Fatalf("area of empty box = %v", b.Area())
	}
	if b.AspectRatio() != 0 {
		t.Fatalf("aspect of zero-width box = %v", b.AspectRatio())
	}
}

func TestBoxValid(t *testing.T) {
	if !(Box{0, 0, 1, 1}).Valid() {
		t.Fatal("unit box should be valid")
	}
	if (Box{1, 0, 0, 1}).Valid() {
		t.Fatal("reversed box should be invalid")
	}
	if (Box{math.NaN(), 0, 1, 1}).Valid() {
		t.Fatal("NaN box should be invalid")
	}
	if (Box{0, 0, math.Inf(1), 1}).Valid() {
		t.Fatal("Inf box should be invalid")
	}
}

func TestTranslateScaleExpand(t *testing.T) {
	b := NewBox(0, 0, 10, 10)
	tr := b.Translate(5, -2)
	if tr.X1 != 5 || tr.Y1 != -2 || tr.X2 != 15 || tr.Y2 != 8 {
		t.Fatalf("translate = %v", tr)
	}
	sc := b.Scale(2, 0.5)
	if sc.Width() != 20 || sc.Height() != 5 {
		t.Fatalf("scale dims = %v x %v", sc.Width(), sc.Height())
	}
	scx, scy := sc.Center()
	if scx != 5 || scy != 5 {
		t.Fatalf("scale moved center to (%v,%v)", scx, scy)
	}
	ex := b.Expand(30)
	if ex.X1 != -30 || ex.Y2 != 40 {
		t.Fatalf("expand = %v", ex)
	}
}

func TestIntersectUnion(t *testing.T) {
	a := NewBox(0, 0, 10, 10)
	b := NewBox(5, 5, 15, 15)
	in := a.Intersect(b)
	if in.Area() != 25 {
		t.Fatalf("intersection area = %v, want 25", in.Area())
	}
	un := a.Union(b)
	if un.X1 != 0 || un.Y1 != 0 || un.X2 != 15 || un.Y2 != 15 {
		t.Fatalf("union = %v", un)
	}
	// Disjoint intersection is empty.
	c := NewBox(20, 20, 30, 30)
	if !a.Intersect(c).Empty() {
		t.Fatal("disjoint boxes should have empty intersection")
	}
	// Union with empty returns the other operand.
	if got := a.Union(Box{}); got != a {
		t.Fatalf("union with empty = %v", got)
	}
	if got := (Box{}).Union(a); got != a {
		t.Fatalf("empty union a = %v", got)
	}
}

func TestClipContains(t *testing.T) {
	b := NewBox(-10, -10, 50, 50).Clip(40, 30)
	if b.X1 != 0 || b.Y1 != 0 || b.X2 != 40 || b.Y2 != 30 {
		t.Fatalf("clip = %v", b)
	}
	if !b.Contains(0, 0) || b.Contains(40, 10) {
		t.Fatal("Contains boundary semantics wrong (half-open)")
	}
	if !b.ContainsBox(NewBox(1, 1, 5, 5)) || b.ContainsBox(NewBox(-1, 0, 5, 5)) {
		t.Fatal("ContainsBox wrong")
	}
}

func TestIoUKnownValues(t *testing.T) {
	a := NewBox(0, 0, 10, 10)
	cases := []struct {
		b    Box
		want float64
	}{
		{a, 1.0},
		{NewBox(0, 0, 5, 10), 0.5},
		{NewBox(10, 10, 20, 20), 0.0},
		{NewBox(5, 0, 15, 10), 50.0 / 150.0},
	}
	for i, c := range cases {
		if got := IoU(a, c.b); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("case %d: IoU = %v, want %v", i, got, c.want)
		}
	}
}

func TestCoverFraction(t *testing.T) {
	a := NewBox(0, 0, 10, 10)
	if got := CoverFraction(a, NewBox(0, 0, 10, 5)); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("cover = %v, want 0.5", got)
	}
	if got := CoverFraction(Box{}, a); got != 0 {
		t.Fatalf("cover of empty = %v", got)
	}
}

// Property: IoU is symmetric, bounded in [0,1], and exactly 1 on identical
// non-degenerate boxes.
func TestIoUProperties(t *testing.T) {
	f := func(x1, y1, w1, h1, x2, y2, w2, h2 float64) bool {
		a := NewBox(mod(x1, 100), mod(y1, 100), mod(x1, 100)+1+mod(w1, 50), mod(y1, 100)+1+mod(h1, 50))
		b := NewBox(mod(x2, 100), mod(y2, 100), mod(x2, 100)+1+mod(w2, 50), mod(y2, 100)+1+mod(h2, 50))
		ab, ba := IoU(a, b), IoU(b, a)
		if !almostEqual(ab, ba, 1e-9) {
			return false
		}
		if ab < 0 || ab > 1+1e-9 {
			return false
		}
		return almostEqual(IoU(a, a), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: intersection area is never larger than either operand's area,
// and union always contains both operands.
func TestIntersectUnionProperties(t *testing.T) {
	f := func(x1, y1, w1, h1, x2, y2, w2, h2 float64) bool {
		a := NewBox(mod(x1, 100), mod(y1, 100), mod(x1, 100)+1+mod(w1, 50), mod(y1, 100)+1+mod(h1, 50))
		b := NewBox(mod(x2, 100), mod(y2, 100), mod(x2, 100)+1+mod(w2, 50), mod(y2, 100)+1+mod(h2, 50))
		in := a.Intersect(b)
		if in.Area() > a.Area()+1e-9 || in.Area() > b.Area()+1e-9 {
			return false
		}
		un := a.Union(b)
		return un.ContainsBox(a) && un.ContainsBox(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func mod(x, m float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	v := math.Mod(math.Abs(x), m)
	return v
}

// minMaxValues are the float64 edge cases where min and max semantics
// can diverge, plus ordinary pixel coordinates.
var minMaxValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64, 1.5, -2.25, 375, 1242,
}

// fmin and fmax return math.Min and math.Max bit for bit on every pair
// of edge values, NaN against the infinities included.
func TestMinMaxMatchMath(t *testing.T) {
	for _, a := range minMaxValues {
		for _, b := range minMaxValues {
			if got, want := fmin(a, b), math.Min(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("fmin(%v, %v) = %v (%#x), math.Min %v (%#x)", a, b, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got, want := fmax(a, b), math.Max(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("fmax(%v, %v) = %v (%#x), math.Max %v (%#x)", a, b, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// Reference box operations written with math.Min and math.Max.
func refIntersect(b, o Box) Box {
	r := Box{math.Max(b.X1, o.X1), math.Max(b.Y1, o.Y1), math.Min(b.X2, o.X2), math.Min(b.Y2, o.Y2)}
	if r.X1 >= r.X2 || r.Y1 >= r.Y2 {
		return Box{}
	}
	return r
}

func refUnion(b, o Box) Box {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	return Box{math.Min(b.X1, o.X1), math.Min(b.Y1, o.Y1), math.Max(b.X2, o.X2), math.Max(b.Y2, o.Y2)}
}

func refClip(b Box, w, h float64) Box {
	return Box{
		math.Max(0, math.Min(b.X1, w)), math.Max(0, math.Min(b.Y1, h)),
		math.Max(0, math.Min(b.X2, w)), math.Max(0, math.Min(b.Y2, h)),
	}
}

// Box.Intersect, Union and Clip equal their math-based references bit
// for bit on boxes and frames drawn from the edge values.
func TestBoxOpsMatchMathReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := func() float64 { return minMaxValues[rng.Intn(len(minMaxValues))] }
	for k := 0; k < 50000; k++ {
		b, o := Box{v(), v(), v(), v()}, Box{v(), v(), v(), v()}
		w, h := v(), v()
		if got, want := b.Intersect(o), refIntersect(b, o); !sameBits(got, want) {
			t.Fatalf("%v.Intersect(%v) = %v, reference %v", b, o, got, want)
		}
		if got, want := b.Union(o), refUnion(b, o); !sameBits(got, want) {
			t.Fatalf("%v.Union(%v) = %v, reference %v", b, o, got, want)
		}
		if got, want := b.Clip(w, h), refClip(b, w, h); !sameBits(got, want) {
			t.Fatalf("%v.Clip(%v, %v) = %v, reference %v", b, w, h, got, want)
		}
	}
}
