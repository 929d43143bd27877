package sched

import "sort"

// priority serves strictly by class — the highest non-empty priority
// class always goes first, FIFO within a class — and makes the lowest
// class absorb the overflow: when over capacity the victim comes from
// the lowest non-empty class (its oldest frame, or its newest under
// tail drop). A scenario's classes are whatever values appear in
// Config.Priorities; the bucket list is built lazily and kept sorted,
// so iteration order is deterministic.
type priority struct {
	cfg     Config
	classes []int  // distinct classes seen, ascending
	qs      []ring // qs[i] queues class classes[i]
	n       int
}

func newPriority(cfg Config) *priority { return &priority{cfg: cfg} }

func (p *priority) Len() int { return p.n }

// bucket returns the queue index for a class, inserting a new bucket
// in sorted position on first sight.
func (p *priority) bucket(class int) int {
	i := sort.SearchInts(p.classes, class)
	if i < len(p.classes) && p.classes[i] == class {
		return i
	}
	p.classes = append(p.classes, 0)
	copy(p.classes[i+1:], p.classes[i:])
	p.classes[i] = class
	p.qs = append(p.qs, ring{})
	copy(p.qs[i+1:], p.qs[i:])
	p.qs[i] = ring{}
	return i
}

func (p *priority) Admit(j Job) (Job, bool) {
	// bucket may grow p.qs; resolve it before indexing so the slice
	// header is read after the mutation.
	i := p.bucket(j.Class)
	p.qs[i].pushBack(j)
	p.n++
	if !p.cfg.over(p.n) {
		return Job{}, false
	}
	for i := range p.qs { // lowest class first
		if p.qs[i].len() == 0 {
			continue
		}
		var v Job
		if p.cfg.DropNewest {
			v, _ = p.qs[i].popBack()
		} else {
			v, _ = p.qs[i].popFront()
		}
		p.n--
		return v, true
	}
	return Job{}, false
}

func (p *priority) Next() (Job, bool) {
	for i := len(p.qs) - 1; i >= 0; i-- { // highest class first
		if j, ok := p.qs[i].popFront(); ok {
			p.n--
			return j, true
		}
	}
	return Job{}, false
}
