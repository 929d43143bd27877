package cluster

import (
	"math/rand"
	"sort"

	"repro/internal/serve"
	"repro/internal/serve/control"
)

// buildFaultSchedule merges the plan's explicit faults with the seeded
// stochastic kill/revive process into one deterministic schedule,
// ordered by (Time, declaration order). The whole schedule is generated
// up front from the plan's seed, so the same Config faults the same
// shards at the same virtual instants on any machine at any
// Base.StepWorkers fan-out.
func buildFaultSchedule(cfg Config) []Fault {
	if !cfg.Faults.Enabled() {
		return nil
	}
	out := append([]Fault(nil), cfg.Faults.Faults...)
	if cfg.Faults.MTBF > 0 {
		seed := cfg.Faults.Seed
		if seed == 0 {
			seed = cfg.Base.Seed
		}
		rng := rand.New(rand.NewSource(seed*1_000_003 + 89))
		t := rng.ExpFloat64() * cfg.Faults.MTBF
		for t < cfg.Base.Duration {
			victim := rng.Intn(cfg.Shards)
			out = append(out, Fault{Time: t, Kind: FaultKill, Shard: victim})
			out = append(out, Fault{Time: t + rng.ExpFloat64()*cfg.Faults.MTTR, Kind: FaultRevive, Shard: victim})
			t += rng.ExpFloat64() * cfg.Faults.MTBF
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// runFaults executes every pending scheduled fault due at or before
// control tick e, in schedule order. Called with r.mu held at tick
// start, before the autoscaler and the migration policy observe the
// cluster.
func (r *Router) runFaults(e float64) {
	for r.nextFault < len(r.faults) && r.faults[r.nextFault].Time <= e {
		f := r.faults[r.nextFault]
		r.nextFault++
		switch f.Kind {
		case FaultKill:
			r.killShard(f.Shard, e)
		case FaultRevive:
			r.reviveShard(f.Shard, e)
		case FaultAddShard:
			r.addShard(f.Tier, e)
		}
	}
}

// killShard takes shard s down at tick e: its in-flight and queued
// frames are seized (serve.Server.FailAt), the live ring resizes
// without it, its streams re-place across the survivors, and the
// seized frames follow the configured FailoverPolicy. Killing a dead
// or not-yet-added shard is a no-op. Called with r.mu held.
func (r *Router) killShard(s int, e float64) {
	if s >= len(r.shards) || !r.shards[s].alive {
		return
	}
	sh := r.shards[s]
	sh.alive = false
	r.kills++
	sh.killCount++
	sh.downSince = e
	sh.lastKill = e
	sh.awaitServe = false
	sh.pending = 0 // any provisioning resize died with the agenda
	sh.idleTicks = 0
	seized, _ := sh.srv.FailAt(e) // open shard, finite time: cannot fail
	if r.cfg.Sink != nil {
		r.cfg.Sink.ClusterEvent(Event{Kind: EventKill, Shard: s, Time: e})
	}
	var ownedBefore []int
	if r.cfg.Faults.Failover == FailoverDegrade {
		ownedBefore = r.ownedBy(s)
	}
	r.rebuildRing(e)
	for _, stream := range ownedBefore {
		// Degrade failover: the dead shard's streams run proposal-only
		// on their fallback shards until it revives.
		r.pinOwner[stream] = s
		r.pin(r.owner[stream], stream, control.ModeProposal)
	}
	r.failover(seized, e)
}

// failover disposes of the frames a kill seized: dropped under
// FailoverDrop, otherwise re-submitted to each stream's new owner at
// the failure tick (hop latency charged off-home; replays are
// subtracted from the merged Arrived). Frames with no live owner park
// as orphans. Called with r.mu held.
func (r *Router) failover(seized []serve.FailedFrame, e float64) {
	for _, f := range seized {
		if r.cfg.Faults.Failover == FailoverDrop {
			r.dropFail[f.Stream]++
			continue
		}
		tgt := r.owner[f.Stream]
		if !r.shards[tgt].alive {
			r.orphans = append(r.orphans, orphanFrame{stream: f.Stream, frame: f.Frame, at: e, seized: true})
			continue
		}
		r.replayed[f.Stream]++
		// The seized world index re-enters Submit as a wire index
		// against the target's own session; a collision is a frame
		// regression the (defaulted) resume reconnect policy absorbs.
		_ = r.forward(tgt, f.Stream, f.Frame, e)
	}
}

// reviveShard brings shard s back at tick e: capacity returns after
// the tier's scale-up latency, downtime is booked, the ring resizes
// back, degrade pins it caused are lifted, and the bulk rebalancer
// re-spreads streams (replaying any parked orphans). Reviving a live
// shard is a no-op. Called with r.mu held.
func (r *Router) reviveShard(s int, e float64) {
	if s >= len(r.shards) || r.shards[s].alive {
		return
	}
	sh := r.shards[s]
	sh.alive = true
	r.revivals++
	upAt := e + sh.tier.ScaleUpLatency
	sh.downtime += upAt - sh.downSince
	sh.downSince = 0
	n := r.reviveExecutors()
	r.resizeShard(s, n, upAt)
	sh.awaitServe = true
	if r.cfg.Sink != nil {
		r.cfg.Sink.ClusterEvent(Event{Kind: EventRevive, Shard: s, Executors: n, Time: upAt})
	}
	for stream, po := range r.pinOwner {
		if po != s {
			continue
		}
		r.pinOwner[stream] = -1
		r.pin(r.owner[stream], stream, control.ModeAuto)
	}
	r.rebuildRing(e)
	r.rebalance(e)
	r.replayOrphans(e)
}

// reviveExecutors is the capacity a revived or newly added shard comes
// up with: the static Base.Executors, or at least one executor under
// the autoscaler (which then grows or releases it from live signals).
func (r *Router) reviveExecutors() int {
	n := r.cfg.Base.Executors
	if r.cfg.Autoscale.Enabled {
		n = r.cfg.Autoscale.Min
		if n < 1 {
			n = 1
		}
	}
	return n
}

// addShard grows the cluster online at tick e: a new shard Server is
// built over the same Base (on tierName, or the config's tier
// rotation), joins the ring, and the bulk rebalancer shifts streams
// toward it by tier speed. Called with r.mu held.
func (r *Router) addShard(tierName string, e float64) {
	s := len(r.shards)
	if tierName == "" {
		tierName = r.cfg.GPUTiers[s%len(r.cfg.GPUTiers)]
	}
	sh, err := r.newShard(tierName, e)
	if err != nil {
		return // tier names and Base were validated at New
	}
	// Born parked: zero capacity from t=0 keeps the cost integral
	// empty until the tier's provisioning completes at e+ScaleUpLatency.
	_ = sh.srv.ResizeAt(0, 0)
	_ = sh.srv.AdvanceTo(e)
	r.added++
	n := r.reviveExecutors()
	r.resizeShard(s, n, e+sh.tier.ScaleUpLatency)
	if r.cfg.Sink != nil {
		r.cfg.Sink.ClusterEvent(Event{Kind: EventAddShard, Shard: s, Executors: n, Tier: sh.tier.Name, Time: e})
	}
	r.rebuildRing(e)
	r.rebalance(e)
	r.replayOrphans(e)
}

// rebuildRing rebuilds the live consistent-hash ring after a
// membership change at tick e and recomputes every stream's hash home.
// Surviving members keep their original vnode keys, so only keys owned
// by the changed member move — the consistent-hashing property that
// keeps an online resize minimal. Streams owned by a dead shard then
// re-place through the same load-capped walk as the initial placement.
// Called with r.mu held.
func (r *Router) rebuildRing(e float64) {
	r.ringEpoch++
	live := r.live()
	if len(live) == 0 {
		r.ring = nil
		return // whole-cluster outage: frames park as orphans instead
	}
	r.ring = newRingMembers(live, virtualNodes)
	for i := range r.home {
		r.home[i] = r.ring.owner(streamKey(i))
	}
	capPer := r.ring.loadCap(r.cfg.Base.Streams, placementLoadFactor)
	counts := make([]int, len(r.shards))
	for _, o := range r.owner {
		if r.shards[o].alive {
			counts[o]++
		}
	}
	for i, o := range r.owner {
		if r.shards[o].alive {
			continue
		}
		tgt := r.ring.capped(i, r.home[i], capPer, counts)
		r.replaced++
		r.moveOwner(i, o, tgt, e, EventRebalance)
	}
}

// live lists the live shards in index order. Called with r.mu held.
func (r *Router) live() []int {
	var live []int
	for s, sh := range r.shards {
		if sh.alive {
			live = append(live, s)
		}
	}
	return live
}

// moveOwner re-homes one stream, bumping its cluster epoch, carrying
// any degrade pin along and emitting kind (EventMigrate or
// EventRebalance). Called with r.mu held.
func (r *Router) moveOwner(stream, from, to int, e float64, kind EventKind) {
	r.owner[stream] = to
	r.epoch[stream]++
	r.movePin(stream, from, to)
	if r.cfg.Sink != nil {
		r.cfg.Sink.ClusterEvent(Event{
			Kind: kind, Shard: to, Stream: stream,
			From: from, To: to, Epoch: r.epoch[stream], Time: e,
		})
	}
}

// movePin carries a stream's degrade pin to its new owner shard when
// ownership changes. Called with r.mu held.
func (r *Router) movePin(stream, from, to int) {
	if r.pinOwner[stream] < 0 || from == to {
		return
	}
	r.pin(from, stream, control.ModeAuto)
	r.pin(to, stream, control.ModeProposal)
}

// pin sets a stream's mode pin on shard s when s is a live shard.
// Called with r.mu held.
func (r *Router) pin(s, stream int, mode control.Mode) {
	if s >= 0 && s < len(r.shards) && r.shards[s].alive {
		_ = r.shards[s].srv.PinMode(stream, mode)
	}
}

// replayOrphans submits every parked orphan to its stream's current
// owner, in buffered order; frames whose owner is still dead stay
// parked. Called with r.mu held after a membership gain.
func (r *Router) replayOrphans(e float64) {
	if len(r.orphans) == 0 {
		return
	}
	pending := r.orphans
	r.orphans = nil
	for _, o := range pending {
		tgt := r.owner[o.stream]
		if !r.shards[tgt].alive {
			r.orphans = append(r.orphans, o)
			continue
		}
		at := o.at
		if at < e { // a NaN stamp fails the comparison and stays poison
			at = e
		}
		if o.seized {
			r.replayed[o.stream]++
		}
		_ = r.forward(tgt, o.stream, o.frame, at)
	}
}
