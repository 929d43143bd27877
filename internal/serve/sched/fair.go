package sched

// fair is deficit round-robin across streams with a unit quantum:
// every stream has a private FIFO, and idle executors cycle over the
// non-empty queues in stream order, taking one frame per visit. Every
// frame is one quantum (service time is not known until it is priced),
// so the deficit counter degenerates to plain round-robin — which is
// exactly the max-min fair share for unit-cost items.
//
// Overflow evicts from the longest per-stream queue (ties to the
// lowest stream index): the burstiest stream pays for its own burst,
// which is what bounds the per-stream drop-rate spread.
type fair struct {
	cfg  Config
	qs   []ring
	next int // stream index the round-robin pointer visits first
	n    int
}

func newFair(cfg Config) *fair {
	return &fair{cfg: cfg, qs: make([]ring, cfg.Streams)}
}

func (f *fair) Len() int { return f.n }

func (f *fair) Admit(j Job) (Job, bool) {
	f.qs[j.Stream].pushBack(j)
	f.n++
	if !f.cfg.over(f.n) {
		return Job{}, false
	}
	longest := 0
	for s := 1; s < len(f.qs); s++ {
		if f.qs[s].len() > f.qs[longest].len() {
			longest = s
		}
	}
	var v Job
	if f.cfg.DropNewest {
		v, _ = f.qs[longest].popBack()
	} else {
		v, _ = f.qs[longest].popFront()
	}
	f.n--
	return v, true
}

func (f *fair) Next() (Job, bool) {
	if f.n == 0 {
		return Job{}, false
	}
	for i := 0; i < len(f.qs); i++ {
		s := (f.next + i) % len(f.qs)
		if j, ok := f.qs[s].popFront(); ok {
			f.next = (s + 1) % len(f.qs)
			f.n--
			return j, true
		}
	}
	return Job{}, false
}
