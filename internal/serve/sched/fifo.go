package sched

// fifo is the PR 2 shared queue, extracted: one global queue in
// arrival order. Overflow evicts the head (drop-oldest, freshest
// first) or rejects the arrival (drop-newest, tail drop).
type fifo struct {
	cfg Config
	q   ring
}

func newFIFO(cfg Config) *fifo { return &fifo{cfg: cfg} }

func (f *fifo) Len() int { return f.q.len() }

func (f *fifo) Admit(j Job) (Job, bool) {
	f.q.pushBack(j)
	if !f.cfg.over(f.q.len()) {
		return Job{}, false
	}
	if f.cfg.DropNewest {
		v, _ := f.q.popBack()
		return v, true
	}
	v, _ := f.q.popFront()
	return v, true
}

func (f *fifo) Next() (Job, bool) { return f.q.popFront() }
