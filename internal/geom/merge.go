package geom

// CostFunc estimates the execution cost of processing a rectangular
// region. The paper's GPU appendix models the execution time of a CNN
// workload W as T = alpha*W + b, where the constant b penalizes each
// separately-launched region; under such a model merging nearby boxes can
// reduce total time even though the merged box covers more pixels.
type CostFunc func(b Box) float64

// AppendGreedyMerge implements the greedy bounding-box merging algorithm
// from the paper's Appendix I: two boxes are merged whenever the
// estimated execution cost of their union is smaller than the sum of
// their individual costs. Merging repeats until no profitable pair
// remains. It appends the merged regions to dst and returns the
// extended slice; empty boxes are dropped, and boxes is not modified.
// dst must not overlap boxes.
//
// Each round merges the pair (i, j), i < j, with the largest strictly
// positive gain (cost(i) + cost(j)) - cost(union), the first such pair
// in scan order on ties; the union takes slot i and the last box moves
// into slot j. The cost of every live box and of every pair's union is
// cached, so cost must be a pure function of the box: it is evaluated
// once per box and once per candidate union, and a round re-prices only
// the n-1 unions involving the merged box.
//
// It allocates only when dst lacks room for the non-empty boxes or,
// past 64 of them, for its caches, so a caller pricing every frame can
// merge into a reused or stack buffer.
func AppendGreedyMerge(dst, boxes []Box, cost CostFunc) []Box {
	base := len(dst)
	for _, b := range boxes {
		if !b.Empty() {
			dst = append(dst, b)
		}
	}
	// The caches take n(n+3)/2 floats and n ints. They live on the
	// stack up to 64 boxes, in two sizes so that the common small input
	// does not pay for zeroing the larger buffers.
	out := dst[base:]
	n := len(out)
	switch {
	case n < 2: // nothing to merge
	case n <= 32:
		var scratch [32 * 35 / 2]float64
		var part [32]int
		out = greedyMerge(out, cost, scratch[:n*(n+3)/2], part[:n])
	case n <= 64:
		var scratch [64 * 67 / 2]float64
		var part [64]int
		out = greedyMerge(out, cost, scratch[:n*(n+3)/2], part[:n])
	default:
		out = greedyMerge(out, cost, make([]float64, n*(n+3)/2), make([]int, n))
	}
	return dst[:base+len(out)]
}

// greedyMerge merges out in place. scratch caches the cost of each live
// box in c, the cost of each pair's union in u (see pairIndex) and each
// row's best gain in g; part holds the partner of that gain.
//
// Row i's best partner is the first j > i, in scan order, with the
// largest strictly positive gain, or -1 when no gain in the row is
// positive. The first row holding the largest best gain then names the
// same pair a full scan would. A merge of (i, j) changes only row i,
// row j (which receives the last box), and columns i and j of the rows
// above them, and it drops the last column. Rows i and j, and any row
// whose cached partner was i, j or the last slot, are rescanned; every
// other row keeps its best over the unchanged columns and only weighs
// it against columns i and j.
func greedyMerge(out []Box, cost CostFunc, scratch []float64, part []int) []Box {
	n := len(out)
	c, g, u := scratch[:n], scratch[n:2*n], scratch[2*n:]
	for j := range out {
		c[j] = cost(out[j])
		for i := 0; i < j; i++ {
			u[pairIndex(i, j)] = cost(out[i].Union(out[j]))
		}
	}
	// rescan sets row i's best over every live column.
	rescan := func(i int) {
		part[i], g[i] = -1, 0
		// pairIndex(i, j+1) - pairIndex(i, j) = j.
		for j, p := i+1, pairIndex(i, i+1); j < n; j, p = j+1, p+j {
			if gain := (c[i] + c[j]) - u[p]; gain > g[i] {
				part[i], g[i] = j, gain
			}
		}
	}
	// weigh lets column j, whose gain in row k changed, take over row
	// k's best if it beats it, or ties it from an earlier column.
	weigh := func(k, j int) {
		gain := (c[k] + c[j]) - u[pairIndex(k, j)]
		if gain > g[k] || (gain == g[k] && part[k] > j) {
			part[k], g[k] = j, gain
		}
	}
	for i := range out {
		rescan(i)
	}
	for {
		bestI := -1
		bestGain := 0.0
		for i := 0; i < n; i++ {
			if g[i] > bestGain {
				bestGain, bestI = g[i], i
			}
		}
		if bestI < 0 {
			return out
		}
		bestJ := part[bestI]
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
		for k := 0; k < n; k++ {
			if p := part[k]; k == bestI || k == bestJ || p == bestI || p == bestJ || p == last {
				rescan(k)
				continue
			}
			if k < bestI {
				weigh(k, bestI)
			}
			if k < bestJ && bestJ < n {
				weigh(k, bestJ)
			}
		}
	}
}

// pairIndex returns the slot of pair (i, j), i < j, in a packed upper
// triangle laid out column by column.
func pairIndex(i, j int) int { return j*(j-1)/2 + i }
