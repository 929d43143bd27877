package sched

import "container/heap"

// edf is earliest-deadline-first: Next pops the waiting job with the
// smallest deadline (arrive + MaxStaleness). Overflow also evicts the
// earliest deadline — under overload the head-of-line job is the one
// nearest expiry and the least likely to be served in time, so it is
// the cheapest to sacrifice; Config.DropNewest is ignored by design
// (the victim is deadline-chosen, not direction-chosen).
//
// With a uniform relative deadline EDF's service order equals FIFO's
// (same offset preserves arrival order), so it coincides with
// fifo/drop-oldest; it differs from fifo under tail drop — where FIFO
// keeps doomed head-of-line frames that later expire as stale drops,
// EDF evicts them as queue drops and serves fresher frames instead.
type edf struct {
	cfg Config
	h   edfHeap
}

func newEDF(cfg Config) *edf { return &edf{cfg: cfg} }

func (e *edf) Len() int { return len(e.h) }

func (e *edf) Admit(j Job) (Job, bool) {
	heap.Push(&e.h, j)
	if !e.cfg.over(len(e.h)) {
		return Job{}, false
	}
	return heap.Pop(&e.h).(Job), true
}

func (e *edf) Next() (Job, bool) {
	if len(e.h) == 0 {
		return Job{}, false
	}
	return heap.Pop(&e.h).(Job), true
}

// edfHeap orders by (deadline, arrive, stream, frame) — a total order
// over jobs, so heap behavior is deterministic.
type edfHeap []Job

func (h edfHeap) Len() int { return len(h) }
func (h edfHeap) Less(i, j int) bool {
	if h[i].Deadline != h[j].Deadline {
		return h[i].Deadline < h[j].Deadline
	}
	if h[i].Arrive != h[j].Arrive {
		return h[i].Arrive < h[j].Arrive
	}
	if h[i].Stream != h[j].Stream {
		return h[i].Stream < h[j].Stream
	}
	return h[i].Frame < h[j].Frame
}
func (h edfHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *edfHeap) Push(x any)   { *h = append(*h, x.(Job)) }
func (h *edfHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	*h = old[:n-1]
	return j
}
