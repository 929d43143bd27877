package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// nearestRank is the nearest-rank q-quantile of ascending samples (the
// ceil(q*n)-th smallest), 0 when there are none.
func nearestRank[T int64 | float64](sorted []T, q float64) T {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// median of the values (which it sorts in place), 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// latencyMetrics sets submit_p50_us and submit_p99_us from per-call wall
// times in nanoseconds (sorted in place).
func latencyMetrics(e2e map[string]float64, ns []int64) {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	e2e["submit_p50_us"] = float64(nearestRank(ns, 0.50)) / 1e3
	e2e["submit_p99_us"] = float64(nearestRank(ns, 0.99)) / 1e3
}

// passStats accumulates the per-pass end-to-end samples of the timed
// phase. The timings are the median over every pass: that damps passes
// the rest of the machine disturbed. Allocation and live heap do not
// depend on timing but on the world's content, so they are the median
// over each world's passes, averaged over the worlds.
type passStats struct {
	setup, rate []float64
	alloc, heap [worldsPerRun][]float64
}

func (p *passStats) add(world int, setup, rate, alloc, heap float64) {
	p.setup = append(p.setup, setup)
	p.rate = append(p.rate, rate)
	p.alloc[world] = append(p.alloc[world], alloc)
	p.heap[world] = append(p.heap[world], heap)
}

func (p *passStats) fill(e2e map[string]float64) {
	avg := func(byWorld *[worldsPerRun][]float64) float64 {
		var m []float64
		for _, v := range byWorld {
			m = append(m, median(v))
		}
		return mean(m)
	}
	e2e["setup_s"] = median(p.setup)
	e2e["frames_per_s"] = median(p.rate)
	e2e["alloc_bytes_per_frame"] = avg(&p.alloc)
	e2e["live_heap_mb"] = avg(&p.heap)
}

// worldsPerRun is how many worlds one invocation covers. Worlds drawn
// from different seeds differ in object density and motion, and with
// them the work per frame; covering several per run keeps a run's
// figures representative of the preset rather than of one draw.
const worldsPerRun = 8

// worldSeed is the seed of world j of an invocation: the --seed drives
// every world and arrival schedule the run generates.
func worldSeed(seed int64, j int) int64 { return seed*worldsPerRun + int64(j) }

// timedPhase runs rounds of one pass per world, so every world gets the
// same number of passes: at least one round, and another only while it
// is expected to end less than half a round past the wall budget.
func timedPhase(seconds float64, pass func(world int) error) error {
	start := time.Now()
	for {
		t := time.Now()
		for w := 0; w < worldsPerRun; w++ {
			if err := pass(w); err != nil {
				return fmt.Errorf("world %d: %w", w, err)
			}
		}
		round := time.Since(t).Seconds()
		if time.Since(start).Seconds()+round/2 >= seconds {
			return nil
		}
	}
}

// mean of the values, 0 when empty.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
