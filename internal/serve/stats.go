package serve

import "slices"

// LatencySummary condenses a latency sample set. All values are
// seconds; percentiles use the nearest-rank method (P50 of n samples is
// the ceil(0.50*n)-th smallest), so every reported value is an actual
// observed latency.
type LatencySummary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean_s"`
	P50   float64 `json:"p50_s"`
	P95   float64 `json:"p95_s"`
	P99   float64 `json:"p99_s"`
	Max   float64 `json:"max_s"`
}

// percentile returns the nearest-rank q-th percentile (q in (0,1]) of
// an ascending-sorted sample set; 0 when empty.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := ceilRank(q, n) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// ceilRank computes ceil(q*n) in exact integer arithmetic for the
// quantiles used here (avoids float64 ceil landing one rank high when
// q*n is representable exactly, e.g. 0.5*4).
func ceilRank(q float64, n int) int {
	r := int(q * float64(n))
	if float64(r) < q*float64(n) {
		r++
	}
	if r < 1 {
		r = 1
	}
	return r
}

// Stats is a live snapshot of a Server, as returned by Server.Stats.
// Fleet is derived the way Result.Fleet is: its counters are
// cumulative since New and its throughput and drop rate cover the
// elapsed makespan (Now), so after a full Drain they equal the final
// Result's fleet row; its Latency, though, summarizes only the most
// recent Config.StatsWindow served frames. It carries only what the
// cluster router reads at each control tick.
type Stats struct {
	// Now is the engine's virtual clock: the time of the last event
	// played so far (the makespan so far).
	Now float64 `json:"now_s"`
	// Fleet sums every stream's counters. Mid-run, Served counts only
	// frames whose launch has completed; frames in flight are not in
	// the books until their completion.
	Fleet StreamStats `json:"fleet"`
	// Instantaneous fleet state: frames waiting in the scheduler,
	// executors currently serving a launch, and the current executor
	// count (equal to Config.Executors until Server.ResizeAt changes
	// it). PerStreamQueue breaks QueueDepth down by stream — the
	// backlog signal the cluster router's migration policy keys on.
	QueueDepth     int   `json:"queue_depth"`
	BusyExecutors  int   `json:"busy_executors"`
	Executors      int   `json:"executors"`
	PerStreamQueue []int `json:"per_stream_queue,omitempty"`
}

// window is a fixed-capacity ring over the most recent served-frame
// latencies, feeding the sliding-window views of Stats and the
// control plane. It also keeps the same samples in ascending order and
// memoizes its summary until the next add, so the live reads — every
// control tick, every router tick, every poll — neither copy nor sort.
type window struct {
	buf    []float64 // ring in arrival order; cap(buf) is the window size
	sorted []float64 // buf's samples ascending
	n      int       // total samples ever added
	memo   LatencySummary
	fresh  bool // memo summarizes sorted
}

func newWindow(capacity int) *window {
	if capacity < 1 {
		capacity = 1
	}
	return &window{buf: make([]float64, 0, capacity), sorted: make([]float64, 0, capacity)}
}

func (w *window) add(v float64) {
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, v)
		i, _ := slices.BinarySearch(w.sorted, v)
		w.sorted = slices.Insert(w.sorted, i, v)
	} else {
		slot := w.n % cap(w.buf)
		w.replace(w.buf[slot], v)
		w.buf[slot] = v
	}
	w.n++
	w.fresh = false
}

// replace swaps the evicted sample old for v in the sorted copy: both
// positions by binary search, then one shift of the samples between
// them.
func (w *window) replace(old, v float64) {
	s := w.sorted
	i, _ := slices.BinarySearch(s, old)
	j, _ := slices.BinarySearch(s, v)
	if j <= i {
		copy(s[j+1:i+1], s[j:i])
		s[j] = v
	} else {
		copy(s[i:j-1], s[i+1:j])
		s[j-1] = v
	}
}

// summary is the window's LatencySummary, computed from the sorted
// copy once per add.
//
//detlint:allocfree
func (w *window) summary() LatencySummary {
	if !w.fresh {
		w.memo = summarizeSorted(w.sorted)
		w.fresh = true
	}
	return w.memo
}

// summarize computes the latency summary of a sample set — a Result
// row's full run — from a sorted copy. The input is not modified.
func summarize(samples []float64) LatencySummary {
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return summarizeSorted(sorted)
}

// summarizeSorted computes the latency summary of an ascending sample
// set, summing in that order so every field is bit-identical however
// the set came to be sorted.
func summarizeSorted(sorted []float64) LatencySummary {
	s := LatencySummary{Count: len(sorted)}
	if len(sorted) == 0 {
		return s
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	s.Mean = sum / float64(len(sorted))
	s.P50 = percentile(sorted, 0.50)
	s.P95 = percentile(sorted, 0.95)
	s.P99 = percentile(sorted, 0.99)
	s.Max = sorted[len(sorted)-1]
	return s
}
