package hungarian

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// solve flattens a nested cost matrix, with the row length of its first
// row, and solves it on a fresh Solver.
func solve(cost [][]float64) []int {
	var flat []float64
	for _, row := range cost {
		flat = append(flat, row...)
	}
	m := 0
	if len(cost) > 0 {
		m = len(cost[0])
	}
	var s Solver
	return s.Solve(flat, len(cost), m)
}

func TestSolveIdentity(t *testing.T) {
	cost := [][]float64{
		{0, 9, 9},
		{9, 0, 9},
		{9, 9, 0},
	}
	got := solve(cost)
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Solve = %v, want %v", got, want)
		}
	}
	if c := TotalCost(cost, got); c != 0 {
		t.Fatalf("total = %v, want 0", c)
	}
}

func TestSolveKnownOptimum(t *testing.T) {
	// Classic example: optimal assignment is (0->1, 1->0, 2->2) cost 5+3+2=10?
	// Verify against brute force instead of a hand-derived answer.
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	got := solve(cost)
	if TotalCost(cost, got) != bruteForceMin(cost) {
		t.Fatalf("Solve cost %v != brute force %v (match %v)", TotalCost(cost, got), bruteForceMin(cost), got)
	}
}

func TestSolveRectangularWide(t *testing.T) {
	// 2 rows, 4 columns: both rows must be matched to distinct columns.
	cost := [][]float64{
		{5, 1, 9, 9},
		{1, 5, 9, 9},
	}
	got := solve(cost)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("Solve = %v, want [1 0]", got)
	}
}

func TestSolveRectangularTall(t *testing.T) {
	// 4 rows, 2 columns: exactly 2 rows matched, others -1.
	cost := [][]float64{
		{9, 9},
		{1, 9},
		{9, 1},
		{9, 9},
	}
	got := solve(cost)
	if got[1] != 0 || got[2] != 1 {
		t.Fatalf("Solve = %v, want rows 1,2 matched to 0,1", got)
	}
	if got[0] != -1 && got[3] != -1 {
		t.Fatalf("expected two unmatched rows, got %v", got)
	}
	matched := 0
	for _, j := range got {
		if j >= 0 {
			matched++
		}
	}
	if matched != 2 {
		t.Fatalf("matched %d rows, want 2", matched)
	}
}

func TestSolveEmpty(t *testing.T) {
	if got := solve(nil); got != nil {
		t.Fatalf("solve(nil) = %v", got)
	}
	got := solve([][]float64{{}, {}})
	if len(got) != 2 || got[0] != -1 || got[1] != -1 {
		t.Fatalf("Solve(zero cols) = %v", got)
	}
}

func TestSolveDisallowedEdges(t *testing.T) {
	cost := [][]float64{
		{Disallowed, 1},
		{Disallowed, Disallowed},
	}
	got := solve(cost)
	if got[0] != 1 {
		t.Fatalf("row 0 should match col 1: %v", got)
	}
	if got[1] != -1 {
		t.Fatalf("row 1 has only disallowed options, want -1: %v", got)
	}
}

func TestSolveAllDisallowed(t *testing.T) {
	cost := [][]float64{{Disallowed, Disallowed}}
	got := solve(cost)
	if got[0] != -1 {
		t.Fatalf("all-disallowed row matched: %v", got)
	}
}

// A ragged matrix flattens to the wrong length, which Solve rejects.
func TestSolveRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged matrix")
		}
	}()
	solve([][]float64{{1, 2}, {1}})
}

// bruteForceMin enumerates all assignments of rows to distinct columns and
// returns the minimum total cost (excluding Disallowed pairs).
func bruteForceMin(cost [][]float64) float64 {
	n := len(cost)
	if n == 0 {
		return 0
	}
	m := len(cost[0])
	usedCols := make([]bool, m)
	best := Disallowed * float64(n)
	var rec func(row int, acc float64, matched int)
	rec = func(row int, acc float64, matched int) {
		if row == n {
			// Require the maximum possible matching size.
			maxMatch := n
			if m < n {
				maxMatch = m
			}
			if matched == maxMatch && acc < best {
				best = acc
			}
			return
		}
		for j := 0; j < m; j++ {
			if !usedCols[j] && cost[row][j] < Disallowed/2 {
				usedCols[j] = true
				rec(row+1, acc+cost[row][j], matched+1)
				usedCols[j] = false
			}
		}
		rec(row+1, acc, matched) // leave this row unmatched
	}
	rec(0, 0, 0)
	return best
}

// Property: on random square matrices up to 6x6, Solve matches brute force.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(6)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = float64(rng.Intn(20))
			}
		}
		got := solve(cost)
		want := bruteForceMin(cost)
		if g := TotalCost(cost, got); g != want {
			t.Fatalf("trial %d (%dx%d): Solve cost %v != brute %v\ncost=%v match=%v",
				trial, n, m, g, want, cost, got)
		}
	}
}

// Property: the assignment is always a valid partial matching (no column
// reused, indexes in range).
func TestSolveIsMatching(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(10), 1+rng.Intn(10)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = rng.Float64() * 100
			}
		}
		match := solve(cost)
		if len(match) != n {
			return false
		}
		seen := make(map[int]bool)
		for _, j := range match {
			if j < -1 || j >= m {
				return false
			}
			if j >= 0 {
				if seen[j] {
					return false
				}
				seen[j] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSolverMatchesSolve pins one Solver reused across random
// rectangular matrices (both orientations, with Disallowed edges mixed
// in) against a fresh Solver per matrix: identical assignments entry
// for entry, so the grown workspace carries nothing between problems.
func TestSolverMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Solver
	for trial := 0; trial < 300; trial++ {
		n, m := rng.Intn(9), rng.Intn(9)
		flat := make([]float64, n*m)
		for i := range flat {
			c := rng.Float64() * 50
			if rng.Intn(6) == 0 {
				c = Disallowed
			}
			flat[i] = c
		}
		var fresh Solver
		want := append([]int(nil), fresh.Solve(flat, n, m)...)
		got := s.Solve(flat, n, m)
		if len(got) != len(want) {
			t.Fatalf("trial %d (%dx%d): reused solver returned %d rows, fresh %d", trial, n, m, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%dx%d): reused solver %v != fresh %v", trial, n, m, got, want)
			}
		}
	}
}

// TestSolverZeroAlloc pins the steady-state allocation budget: after
// the workspace has grown to the problem size, Solve allocates nothing.
func TestSolverZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, m = 12, 7 // rows > cols exercises the transpose scratch too
	flat := make([]float64, n*m)
	for i := range flat {
		flat[i] = rng.Float64()
	}
	var s Solver
	s.Solve(flat, n, m) // warm the workspace
	if a := testing.AllocsPerRun(100, func() { s.Solve(flat, n, m) }); a > 0 {
		t.Errorf("Solver.Solve allocates %v per run after warm-up, want 0", a)
	}
}

// TestSolverShapePanics rejects a mis-shaped flat matrix.
func TestSolverShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mis-shaped flat matrix")
		}
	}()
	var s Solver
	s.Solve(make([]float64, 5), 2, 3)
}

func BenchmarkSolve50x50(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cost := make([]float64, 50*50)
	for i := range cost {
		cost[i] = rng.Float64()
	}
	var s Solver
	s.Solve(cost, 50, 50) // grow the workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(cost, 50, 50)
	}
}

// TotalCost sums the cost of an assignment produced by Solve, counting
// only matched rows.
func TotalCost(cost [][]float64, rowMatch []int) float64 {
	total := 0.0
	for i, j := range rowMatch {
		if j >= 0 {
			total += cost[i][j]
		}
	}
	return total
}
