// Package hungarian implements the Kuhn–Munkres assignment algorithm for
// rectangular cost matrices. CaTDet's tracker uses it to associate
// detections across adjacent frames with negative-IoU costs, exactly as
// SORT does (Bewley et al., 2016).
//
// The solver runs in O(n^3) using the potential/augmenting-path
// formulation, which is the standard production variant. The core works
// on a flat row-major matrix through a reusable Solver workspace, so
// per-frame association in the tracker allocates nothing at steady
// state.
package hungarian

import "math"

// Disallowed is a sentinel cost marking a pair that must never be matched.
// It is large enough that any assignment avoiding it is preferred, but
// finite so the potentials stay well-conditioned.
const Disallowed = 1e30

// Solver holds the workspace for repeated assignment problems. The zero
// value is ready to use; buffers grow to the largest problem seen and
// are reused, so steady-state Solve calls allocate nothing. A Solver is
// not safe for concurrent use.
type Solver struct {
	u, v, minv []float64
	p, way     []int
	used       []bool
	work       []float64 // transposed copy when rows > cols
	rowMatch   []int
	out        []int
}

// Solve finds a minimum-cost assignment for the n-by-m cost matrix given
// in row-major flat form: cost[i*m+j] is the cost of assigning row i to
// column j. At most min(n, m) pairs are matched and every row and column
// is used at most once.
//
// The returned slice has one entry per row: rowMatch[i] is the column
// assigned to row i, or -1 if the row is unmatched (more rows than
// columns) or its only available pairings were Disallowed. The slice is
// owned by the Solver and valid until its next call.
//
// cost must hold exactly n*m entries; Solve panics otherwise, since a
// mis-shaped matrix is a programming error, not an input condition.
//
//detlint:allocfree
func (s *Solver) Solve(cost []float64, n, m int) []int {
	if len(cost) != n*m {
		panic("hungarian: cost length does not match n*m")
	}
	if n == 0 {
		return nil
	}
	if m == 0 {
		s.out = fillNeg(s.out, n)
		return s.out
	}

	// The classic formulation requires rows <= cols; transpose into the
	// reused scratch if needed. work is indexed [i*stride+j] throughout.
	origN := n
	transposed := false
	work := cost
	if n > m {
		transposed = true
		if cap(s.work) < n*m {
			s.work = make([]float64, n*m)
		}
		s.work = s.work[:n*m]
		for j := 0; j < m; j++ {
			for i := 0; i < n; i++ {
				s.work[j*n+i] = cost[i*m+j]
			}
		}
		work = s.work
		n, m = m, n
	}
	stride := m

	// Potentials u (rows) and v (columns), 1-indexed internally with a
	// virtual 0th row/column as in the standard e-maxx formulation.
	s.u = fillZeroF(s.u, n+1)
	s.v = fillZeroF(s.v, m+1)
	s.p = fillZeroI(s.p, m+1) // p[j] = row matched to column j (1-indexed), 0 = free
	s.way = fillZeroI(s.way, m+1)
	if cap(s.minv) < m+1 {
		s.minv = make([]float64, m+1)
	}
	if cap(s.used) < m+1 {
		s.used = make([]bool, m+1)
	}
	u, v, p, way := s.u, s.v, s.p, s.way

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := s.minv[:m+1]
		used := s.used[:m+1]
		for j := range minv {
			minv[j] = math.Inf(1)
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := -1
			row := work[(i0-1)*stride:]
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := row[j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	rowMatch := fillNeg(s.rowMatch, n)
	s.rowMatch = rowMatch
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			rowMatch[p[j]-1] = j - 1
		}
	}
	// Strip matches that only exist because the solver was forced through
	// a Disallowed edge.
	for i, j := range rowMatch {
		if j >= 0 && work[i*stride+j] >= Disallowed/2 {
			rowMatch[i] = -1
		}
	}

	if !transposed {
		s.out = append(s.out[:0], rowMatch...)
		return s.out
	}
	// Invert the row/column roles back to the caller's orientation.
	out := fillNeg(s.out, origN)
	s.out = out
	for i, j := range rowMatch {
		if j >= 0 {
			out[j] = i
		}
	}
	return out
}

// fillNeg resizes buf to n entries of -1, reusing its backing array.
//
//detlint:allocfree
func fillNeg(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = -1
	}
	return buf
}

// fillZeroF resizes buf to n zeros, reusing its backing array.
//
//detlint:allocfree
func fillZeroF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// fillZeroI resizes buf to n zeros, reusing its backing array.
//
//detlint:allocfree
func fillZeroI(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}
