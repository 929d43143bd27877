package serve

import (
	"math"
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
