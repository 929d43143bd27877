package serve

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestPercentileClosedForm pins the nearest-rank percentiles against
// hand-computed cases.
func TestPercentileClosedForm(t *testing.T) {
	// 1..100 (reversed so summarize has to sort): pq is exactly the
	// q-th value.
	var big []float64
	for v := 100; v >= 1; v-- {
		big = append(big, float64(v))
	}
	// n=4: ranks are ceil(q*4): p50 -> 2nd, p95 -> 4th, p99 -> 4th.
	small := []float64{40, 10, 30, 20}

	cases := []struct {
		name                     string
		samples                  []float64
		mean, p50, p95, p99, max float64
	}{
		{"hundred", big, 50.5, 50, 95, 99, 100},
		{"four", small, 25, 20, 40, 40, 40},
		{"single", []float64{7}, 7, 7, 7, 7, 7},
	}
	for _, c := range cases {
		s := summarize(c.samples)
		if s.Count != len(c.samples) {
			t.Errorf("%s: count %d, want %d", c.name, s.Count, len(c.samples))
		}
		for _, got := range []struct {
			label     string
			got, want float64
		}{
			{"mean", s.Mean, c.mean},
			{"p50", s.P50, c.p50},
			{"p95", s.P95, c.p95},
			{"p99", s.P99, c.p99},
			{"max", s.Max, c.max},
		} {
			if math.Abs(got.got-got.want) > 1e-12 {
				t.Errorf("%s: %s = %v, want %v", c.name, got.label, got.got, got.want)
			}
		}
	}
}

// TestSummarizeEmpty keeps the zero-sample path at zero values rather
// than NaN.
func TestSummarizeEmpty(t *testing.T) {
	s := summarize(nil)
	if s != (LatencySummary{}) {
		t.Fatalf("summarize(nil) = %+v, want zero", s)
	}
}

// TestSummarizeDoesNotMutate guards the documented no-mutation
// contract (callers keep their sample slices).
func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("summarize mutated its input: %v", in)
	}
}

// TestWindowSummaryMatchesSort pins the sorted, memoized latency
// window against the copy-and-sort reference: after every add, and on
// a repeated read, summary() equals summarize over the ring's samples
// bit for bit, and the sorted copy is exactly the ring's samples in
// ascending order. Samples mix quarter-quantized ties (so evictions
// and insertions land among equal values) with uniform ones.
func TestWindowSummaryMatchesSort(t *testing.T) {
	bits := func(s LatencySummary) [6]uint64 {
		return [6]uint64{uint64(s.Count), math.Float64bits(s.Mean), math.Float64bits(s.P50),
			math.Float64bits(s.P95), math.Float64bits(s.P99), math.Float64bits(s.Max)}
	}
	for _, size := range []int{1, 2, 3, 7, 256} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(size)))
			w := newWindow(size)
			for i := 0; i < 5000; i++ {
				v := rng.Float64() * 3
				if rng.Intn(2) == 0 {
					v = float64(rng.Intn(12)) / 4
				}
				w.add(v)
				want := summarize(slices.Clone(w.buf))
				for read := 0; read < 2; read++ {
					if got := w.summary(); bits(got) != bits(want) {
						t.Fatalf("add %d read %d: summary %+v, want %+v", i, read, got, want)
					}
				}
				ref := slices.Clone(w.buf)
				slices.Sort(ref)
				if !slices.Equal(w.sorted, ref) {
					t.Fatalf("add %d: sorted copy %v, want %v", i, w.sorted, ref)
				}
			}
		})
	}
}

// TestWindowSummaryAllocFree pins the live read path: a full window's
// add and summary allocate nothing.
func TestWindowSummaryAllocFree(t *testing.T) {
	w := newWindow(256)
	for i := 0; i < 300; i++ {
		w.add(float64(i%17) / 4)
	}
	v := 0.0
	if a := testing.AllocsPerRun(100, func() {
		v += 0.25
		w.add(v)
		_ = w.summary()
	}); a != 0 {
		t.Errorf("warm add+summary allocates %v times, want 0", a)
	}
}
