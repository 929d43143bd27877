package geom

// CostFunc estimates the execution cost of processing a rectangular
// region. The paper's GPU appendix models the execution time of a CNN
// workload W as T = alpha*W + b, where the constant b penalizes each
// separately-launched region; under such a model merging nearby boxes can
// reduce total time even though the merged box covers more pixels.
type CostFunc func(b Box) float64

// GreedyMerge implements the greedy bounding-box merging algorithm from
// the paper's Appendix I: two boxes are merged whenever the estimated
// execution cost of their union is smaller than the sum of their
// individual costs. Merging repeats until no profitable pair remains.
// The input is not modified; the result holds the merged regions.
//
// Each round merges the pair (i, j), i < j, with the largest strictly
// positive gain (cost(i) + cost(j)) - cost(union), the first such pair
// in scan order on ties; the union takes slot i and the last box moves
// into slot j. The cost of every live box and of every pair's union is
// cached, so cost must be a pure function of the box: it is evaluated
// once per box and once per candidate union, and a round re-prices only
// the n-1 unions involving the merged box.
func GreedyMerge(boxes []Box, cost CostFunc) []Box {
	out := make([]Box, 0, len(boxes))
	for _, b := range boxes {
		if !b.Empty() {
			out = append(out, b)
		}
	}
	// The cost cache takes n(n+1)/2 floats. It lives on the stack up to
	// 64 boxes, in two sizes so that the common small input does not pay
	// for zeroing the larger buffer.
	n := len(out)
	switch {
	case n < 2:
		return out
	case n <= 32:
		var scratch [32 * 33 / 2]float64
		return greedyMerge(out, cost, scratch[:n*(n+1)/2])
	case n <= 64:
		var scratch [64 * 65 / 2]float64
		return greedyMerge(out, cost, scratch[:n*(n+1)/2])
	}
	return greedyMerge(out, cost, make([]float64, n*(n+1)/2))
}

// greedyMerge merges out in place, caching the cost of each live box in
// scratch[:n] and the cost of each pair's union in the rest of scratch
// (see pairIndex).
func greedyMerge(out []Box, cost CostFunc, scratch []float64) []Box {
	n := len(out)
	c, u := scratch[:n], scratch[n:]
	for j := range out {
		c[j] = cost(out[j])
		for i := 0; i < j; i++ {
			u[pairIndex(i, j)] = cost(out[i].Union(out[j]))
		}
	}
	for {
		bestI, bestJ := -1, -1
		bestGain := 0.0
		for i := 0; i < n; i++ {
			// pairIndex(i, j+1) - pairIndex(i, j) = j.
			for j, p := i+1, pairIndex(i, i+1); j < n; j, p = j+1, p+j {
				gain := (c[i] + c[j]) - u[p]
				if gain > bestGain {
					bestGain, bestI, bestJ = gain, i, j
				}
			}
		}
		if bestI < 0 {
			return out
		}
		out[bestI] = out[bestI].Union(out[bestJ])
		c[bestI] = u[pairIndex(bestI, bestJ)]
		last := n - 1
		if bestJ != last {
			out[bestJ], c[bestJ] = out[last], c[last]
			for k := 0; k < last; k++ {
				if k != bestJ {
					u[pairIndex(min(k, bestJ), max(k, bestJ))] = u[pairIndex(k, last)]
				}
			}
		}
		out, n = out[:last], last
		for k := 0; k < n; k++ {
			if k != bestI {
				lo, hi := min(k, bestI), max(k, bestI)
				u[pairIndex(lo, hi)] = cost(out[lo].Union(out[hi]))
			}
		}
	}
}

// pairIndex returns the slot of pair (i, j), i < j, in a packed upper
// triangle laid out column by column.
func pairIndex(i, j int) int { return j*(j-1)/2 + i }

// UnionArea returns the exact area of the union of the boxes via a sweep
// over the distinct x-intervals. It is used by tests to validate the
// grid-mask approximation and by cost models that need exact coverage.
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
