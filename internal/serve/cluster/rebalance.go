package cluster

import "sort"

// rebalance is the tier-aware bulk planner that runs after a membership
// gain (revival or shard addition): it extends PR 7's one-stream-per-
// tick migration policy to a batch plan that moves ownership toward the
// fast tiers in a single control decision.
//
// Each live shard's target stream count is proportional to its tier
// speed (largest-remainder apportionment, ties to the lower shard
// index). Overloaded donors then hand their lowest-index streams to the
// fastest underloaded receivers; every move bumps the stream's cluster
// epoch and books an EventRebalance, and — like the migration policy —
// moves only future arrivals: frames already queued on the donor drain
// there. Called with r.mu held; deterministic because targets, donors
// and receivers all derive from virtual-clock state in fixed order.
func (r *Router) rebalance(e float64) {
	live := r.live()
	if len(live) < 2 {
		return
	}
	total := r.cfg.Base.Streams
	sum := 0.0
	for _, s := range live {
		sum += r.shards[s].tier.Speed
	}
	if sum <= 0 {
		return
	}
	// Largest-remainder apportionment of the stream count by speed.
	target := make([]int, len(r.shards))
	type rem struct {
		s    int
		frac float64
	}
	rems := make([]rem, 0, len(live))
	assigned := 0
	for _, s := range live {
		q := float64(total) * r.shards[s].tier.Speed / sum
		target[s] = int(q)
		assigned += target[s]
		rems = append(rems, rem{s: s, frac: q - float64(target[s])})
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; assigned < total; i++ {
		target[rems[i%len(rems)].s]++
		assigned++
	}
	counts := make([]int, len(r.shards))
	for _, o := range r.owner {
		counts[o]++
	}
	// Receivers in fastest-first order (ties to the lower index).
	recv := append([]int(nil), live...)
	sort.SliceStable(recv, func(i, j int) bool { return r.shards[recv[i]].tier.Speed > r.shards[recv[j]].tier.Speed })
	for i := 0; i < total; i++ {
		d := r.owner[i]
		if !r.shards[d].alive || counts[d] <= target[d] {
			continue
		}
		for _, rc := range recv {
			if rc == d || counts[rc] >= target[rc] {
				continue
			}
			counts[d]--
			counts[rc]++
			r.rebalanced++
			r.moveOwner(i, d, rc, e, EventRebalance)
			break
		}
	}
}
