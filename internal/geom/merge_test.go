package geom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refGreedyMerge is the O(n^3) greedy merge the incremental
// AppendGreedyMerge replaced, kept as the equivalence reference: it re-prices both boxes
// and their union for every pair in every round.
func refGreedyMerge(boxes []Box, cost CostFunc) []Box {
	out := make([]Box, 0, len(boxes))
	for _, b := range boxes {
		if !b.Empty() {
			out = append(out, b)
		}
	}
	for {
		bestI, bestJ := -1, -1
		bestGain := 0.0
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				merged := out[i].Union(out[j])
				gain := cost(out[i]) + cost(out[j]) - cost(merged)
				if gain > bestGain {
					bestGain, bestI, bestJ = gain, i, j
				}
			}
		}
		if bestI < 0 {
			return out
		}
		out[bestI] = out[bestI].Union(out[bestJ])
		out[bestJ] = out[len(out)-1]
		out = out[:len(out)-1]
	}
}

// launchCost is a region cost of the appendix's form T = alpha*W + b:
// a fixed launch overhead plus time proportional to the region's share
// of a KITTI frame.
func launchCost(overhead float64) CostFunc {
	return func(b Box) float64 { return overhead + b.Area()/(1242*375) }
}

// mergeInput returns n seeded boxes with a few empty ones mixed in, so
// AppendGreedyMerge's empty-box filter runs too.
func mergeInput(n int, seed int64) []Box {
	boxes := kittiBoxes(n, seed)
	for i := 3; i < n; i += 7 {
		boxes[i].X2 = boxes[i].X1
	}
	return boxes
}

// gridBoxes returns n seeded boxes with corners on a 20-pixel grid of a
// KITTI frame. Their areas and unions repeat often, so the gains of
// different pairs tie exactly.
func gridBoxes(n int, seed int64) []Box {
	rng := rand.New(rand.NewSource(seed))
	boxes := make([]Box, n)
	for i := range boxes {
		x, y := float64(rng.Intn(62)*20), float64(rng.Intn(19)*20)
		boxes[i] = NewBox(x, y, x+float64((1+rng.Intn(6))*20), y+float64((1+rng.Intn(4))*20))
	}
	return boxes
}

// quantisedCost rounds the area down to 500-pixel steps, so that many
// pairs in different columns share the same gain.
func quantisedCost(b Box) float64 { return float64(int(b.Area()/500)) + 4 }

// mergePrefix is a box that no input holds, written into dst ahead of
// the merge to check that AppendGreedyMerge leaves what dst holds alone.
var mergePrefix = NewBox(-7, -3, -1, -2)

// checkMergeMatchesReference fails unless AppendGreedyMerge, into an
// empty dst and into one that already holds a prefix, appends the same
// boxes as refGreedyMerge, in the same order and bit for bit, and
// leaves both the prefix and its input alone.
func checkMergeMatchesReference(t testing.TB, name string, boxes []Box, cost CostFunc) {
	t.Helper()
	in := append([]Box(nil), boxes...)
	want := refGreedyMerge(append([]Box(nil), boxes...), cost)
	for _, prefix := range []int{0, 2} {
		dst := make([]Box, prefix, prefix+1)
		for i := range dst {
			dst[i] = mergePrefix
		}
		got := AppendGreedyMerge(dst, boxes, cost)
		if len(got) != prefix+len(want) {
			t.Fatalf("%s prefix=%d: appended %d boxes, reference %d", name, prefix, len(got)-prefix, len(want))
		}
		for i := 0; i < prefix; i++ {
			if !sameBits(got[i], mergePrefix) {
				t.Fatalf("%s prefix=%d: prefix box %d = %v", name, prefix, i, got[i])
			}
		}
		for i := range want {
			if !sameBits(got[prefix+i], want[i]) {
				t.Fatalf("%s prefix=%d: box %d = %v, reference %v", name, prefix, i, got[prefix+i], want[i])
			}
		}
		for i := range boxes {
			if !sameBits(boxes[i], in[i]) {
				t.Fatalf("%s prefix=%d: input box %d modified", name, prefix, i)
			}
		}
	}
}

// The incremental merge returns the same boxes, in the same order and
// bit for bit, as the O(n^3) reference, for every input size from 0 to
// 80 (both stack-scratch sizes and the heap fallback) and for costs
// that merge almost everything, something, or almost nothing. The grid
// inputs under the stepped costs tie many gains, which pins the first
// pair in scan order as the winner.
func TestGreedyMergeMatchesReference(t *testing.T) {
	inputs := []struct {
		name  string
		boxes func(n int, seed int64) []Box
	}{
		{"kitti", mergeInput},
		{"grid", gridBoxes},
	}
	costs := []struct {
		name string
		cost CostFunc
	}{
		{"flat", func(Box) float64 { return 1 }},
		{"launch", launchCost(0.02)},
		{"cheap", launchCost(0.002)},
		{"area", func(b Box) float64 { return b.Area() }},
		{"quadratic", func(b Box) float64 { return 0.01 + math.Pow(b.Area()/1e4, 1.5) }},
		{"quantised", quantisedCost},
		{"quantised-cheap", func(b Box) float64 { return float64(int(b.Area()/2000)) + 1 }},
	}
	for _, in := range inputs {
		for _, tc := range costs {
			for n := 0; n <= 80; n++ {
				name := fmt.Sprintf("%s/%s n=%d", in.name, tc.name, n)
				checkMergeMatchesReference(t, name, in.boxes(n, int64(1000+n)), tc.cost)
			}
		}
	}
}

// FuzzGreedyMerge checks AppendGreedyMerge against the reference on fuzzed
// boxes and launch overheads. Each 4 bytes of data place one box on a
// coarse grid, so equal gains are common.
func FuzzGreedyMerge(f *testing.F) {
	f.Add([]byte{10, 20, 3, 2, 12, 20, 3, 2, 200, 90, 8, 8, 0, 0, 255, 255}, 0.02)
	f.Add([]byte{1, 1, 1, 1, 2, 1, 1, 1, 3, 1, 1, 1, 4, 1, 1, 1, 1, 2, 1, 1}, 0.002)
	f.Add([]byte{0, 0, 0, 0, 5, 5, 0, 9}, math.Inf(1))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, overhead float64) {
		var boxes []Box
		for ; len(data) >= 4 && len(boxes) < 80; data = data[4:] {
			x, y := float64(data[0])*5, float64(data[1])*2
			boxes = append(boxes, NewBox(x, y, x+float64(data[2])*2, y+float64(data[3])))
		}
		checkMergeMatchesReference(t, "fuzz", boxes, launchCost(overhead))
	})
}

func sameBits(a, b Box) bool {
	return math.Float64bits(a.X1) == math.Float64bits(b.X1) &&
		math.Float64bits(a.Y1) == math.Float64bits(b.Y1) &&
		math.Float64bits(a.X2) == math.Float64bits(b.X2) &&
		math.Float64bits(a.Y2) == math.Float64bits(b.Y2)
}

// Up to 64 boxes the merge keeps its caches on the stack, so merging
// into a reused buffer with room for the boxes allocates nothing.
func TestGreedyMergeAllocs(t *testing.T) {
	cost := launchCost(0.02)
	for _, n := range []int{1, 2, 8, 32, 33, 64} {
		for _, boxes := range [][]Box{kittiBoxes(n, int64(n)), gridBoxes(n, int64(n))} {
			dst := make([]Box, 0, n)
			if a := testing.AllocsPerRun(50, func() { dst = AppendGreedyMerge(dst[:0], boxes, cost) }); a != 0 {
				t.Fatalf("n=%d: AppendGreedyMerge allocs = %v, want 0", n, a)
			}
		}
	}
}

var mergeSink []Box

func BenchmarkGreedyMerge(b *testing.B) {
	cost := launchCost(0.02)
	for _, n := range []int{8, 24, 48} {
		boxes := kittiBoxes(n, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			mergeSink = make([]Box, 0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mergeSink = AppendGreedyMerge(mergeSink[:0], boxes, cost)
			}
		})
	}
}
