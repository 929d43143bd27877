package geom

import (
	"fmt"
	"math"
	"testing"
)

// refGreedyMerge is the O(n^3) greedy merge the incremental GreedyMerge
// replaced, kept as the equivalence reference: it re-prices both boxes
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
// GreedyMerge's empty-box filter runs too.
func mergeInput(n int, seed int64) []Box {
	boxes := kittiBoxes(n, seed)
	for i := 3; i < n; i += 7 {
		boxes[i].X2 = boxes[i].X1
	}
	return boxes
}

// The incremental merge returns the same boxes, in the same order and
// bit for bit, as the O(n^3) reference, for every input size from 0 to
// 80 (both stack-scratch sizes and the heap fallback) and for costs
// that merge almost everything, something, or almost nothing.
func TestGreedyMergeMatchesReference(t *testing.T) {
	costs := []struct {
		name string
		cost CostFunc
	}{
		{"flat", func(Box) float64 { return 1 }},
		{"launch", launchCost(0.02)},
		{"cheap", launchCost(0.002)},
		{"area", func(b Box) float64 { return b.Area() }},
		{"quadratic", func(b Box) float64 { return 0.01 + math.Pow(b.Area()/1e4, 1.5) }},
	}
	for _, tc := range costs {
		name, cost := tc.name, tc.cost
		for n := 0; n <= 80; n++ {
			boxes := mergeInput(n, int64(1000+n))
			in := append([]Box(nil), boxes...)
			got, want := GreedyMerge(boxes, cost), refGreedyMerge(in, cost)
			if len(got) != len(want) {
				t.Fatalf("%s n=%d: %d boxes, reference %d", name, n, len(got), len(want))
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s n=%d: box %d = %v, reference %v", name, n, i, got[i], want[i])
				}
			}
			for i := range boxes {
				if !sameBits(boxes[i], in[i]) {
					t.Fatalf("%s n=%d: input box %d modified", name, n, i)
				}
			}
		}
	}
}

func sameBits(a, b Box) bool {
	return math.Float64bits(a.X1) == math.Float64bits(b.X1) &&
		math.Float64bits(a.Y1) == math.Float64bits(b.Y1) &&
		math.Float64bits(a.X2) == math.Float64bits(b.X2) &&
		math.Float64bits(a.Y2) == math.Float64bits(b.Y2)
}

// Up to 64 boxes the merge keeps its cost cache on the stack: the
// returned slice is its only allocation.
func TestGreedyMergeAllocs(t *testing.T) {
	cost := launchCost(0.02)
	for _, n := range []int{1, 2, 8, 32, 33, 64} {
		boxes := kittiBoxes(n, int64(n))
		if a := testing.AllocsPerRun(50, func() { _ = GreedyMerge(boxes, cost) }); a != 1 {
			t.Fatalf("n=%d: GreedyMerge allocs = %v, want 1", n, a)
		}
	}
}

var mergeSink []Box

func BenchmarkGreedyMerge(b *testing.B) {
	cost := launchCost(0.02)
	for _, n := range []int{8, 24, 48} {
		boxes := kittiBoxes(n, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mergeSink = GreedyMerge(boxes, cost)
			}
		})
	}
}
