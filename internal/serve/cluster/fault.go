package cluster

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/gpumodel"
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
	if s >= len(r.shards) || !r.alive[s] {
		return
	}
	r.alive[s] = false
	r.kills++
	r.killCount[s]++
	r.downSince[s] = e
	r.lastKill[s] = e
	r.awaitServe[s] = false
	r.pending[s] = 0 // any provisioning resize died with the agenda
	r.idleTicks[s] = 0
	seized, _ := r.shards[s].FailAt(e) // open shard, finite time: cannot fail
	if r.cfg.Sink != nil {
		r.cfg.Sink.ClusterEvent(Event{Kind: EventKill, Shard: s, Time: e})
	}
	var ownedBefore []int
	if r.cfg.Faults.Failover == FailoverDegrade {
		for stream, o := range r.owner {
			if o == s {
				ownedBefore = append(ownedBefore, stream)
			}
		}
	}
	r.rebuildRing()
	r.replaceDeadOwned(e)
	for _, stream := range ownedBefore {
		// Degrade failover: the dead shard's streams run proposal-only
		// on their fallback shards until it revives.
		r.pinOwner[stream] = s
		if o := r.owner[stream]; r.alive[o] {
			_ = r.shards[o].PinMode(stream, control.ModeProposal)
		}
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
		if !r.alive[tgt] {
			r.orphans = append(r.orphans, orphanFrame{stream: f.Stream, frame: f.Frame, at: e, seized: true})
			continue
		}
		at := e
		if tgt != r.home[f.Stream] {
			at += r.cfg.HopLatency
		}
		r.replayed[f.Stream]++
		// The seized world index re-enters Submit as a wire index
		// against the target's own session; a collision is a frame
		// regression the (defaulted) resume reconnect policy absorbs.
		_ = r.shards[tgt].Submit(f.Stream, f.Frame, at)
	}
}

// reviveShard brings shard s back at tick e: capacity returns after
// the tier's scale-up latency, downtime is booked, the ring resizes
// back, degrade pins it caused are lifted, and the bulk rebalancer
// re-spreads streams (replaying any parked orphans). Reviving a live
// shard is a no-op. Called with r.mu held.
func (r *Router) reviveShard(s int, e float64) {
	if s >= len(r.shards) || r.alive[s] {
		return
	}
	r.alive[s] = true
	r.revivals++
	upAt := e + r.tiers[s].ScaleUpLatency
	r.downtime[s] += upAt - r.downSince[s]
	r.downSince[s] = 0
	n := r.reviveExecutors()
	r.resizeShard(s, n, upAt)
	r.awaitServe[s] = true
	if r.cfg.Sink != nil {
		r.cfg.Sink.ClusterEvent(Event{Kind: EventRevive, Shard: s, Executors: n, Time: upAt})
	}
	for stream, po := range r.pinOwner {
		if po != s {
			continue
		}
		r.pinOwner[stream] = -1
		if o := r.owner[stream]; r.alive[o] {
			_ = r.shards[o].PinMode(stream, control.ModeAuto)
		}
	}
	r.rebuildRing()
	r.replaceDeadOwned(e)
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
	tier, err := gpumodel.TierByName(tierName)
	if err != nil {
		return // tier names are validated at New
	}
	base := gpumodel.Default()
	if r.cfg.Base.GPU != nil {
		base = *r.cfg.Base.GPU
	}
	shardCfg := r.cfg.Base
	shardCfg.Sink = shardSink{r: r, shard: s}
	model := tier.Apply(base)
	shardCfg.GPU = &model
	srv, err := serve.New(shardCfg)
	if err != nil {
		return // Base was validated at New
	}
	// Born parked: zero capacity from t=0 keeps the cost integral
	// empty until the tier's provisioning completes at e+ScaleUpLatency.
	_ = srv.ResizeAt(0, 0)
	_ = srv.AdvanceTo(e)
	r.shards = append(r.shards, srv)
	r.tiers = append(r.tiers, tier)
	r.lastMig = append(r.lastMig, math.Inf(-1))
	r.pending = append(r.pending, 0)
	r.idleTicks = append(r.idleTicks, 0)
	r.alive = append(r.alive, true)
	r.bornAt = append(r.bornAt, e)
	r.downSince = append(r.downSince, 0)
	r.lastKill = append(r.lastKill, 0)
	r.downtime = append(r.downtime, 0)
	r.killCount = append(r.killCount, 0)
	r.awaitServe = append(r.awaitServe, false)
	r.recoveries = append(r.recoveries, nil)
	r.added++
	n := r.reviveExecutors()
	r.resizeShard(s, n, e+tier.ScaleUpLatency)
	if r.cfg.Sink != nil {
		r.cfg.Sink.ClusterEvent(Event{Kind: EventAddShard, Shard: s, Executors: n, Tier: tier.Name, Time: e})
	}
	r.rebuildRing()
	r.replaceDeadOwned(e)
	r.rebalance(e)
	r.replayOrphans(e)
}

// rebuildRing rebuilds the live consistent-hash ring after a
// membership change and recomputes every stream's hash home. Surviving
// members keep their original vnode keys, so only keys owned by the
// changed member move — the consistent-hashing property that keeps an
// online resize minimal. Called with r.mu held.
func (r *Router) rebuildRing() {
	r.ringEpoch++
	var live []int
	for s := range r.shards {
		if r.alive[s] {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		r.ring = nil
		return
	}
	r.ring = newRingMembers(live, r.cfg.VirtualNodes)
	for i := range r.home {
		r.home[i] = r.ring.owner(streamKey(i))
	}
}

// replaceDeadOwned re-places every stream owned by a dead shard onto
// the live ring with the same load-aware cap walk as the initial
// placement. Called with r.mu held, after rebuildRing.
func (r *Router) replaceDeadOwned(e float64) {
	if r.ring == nil {
		return // whole-cluster outage: frames park as orphans instead
	}
	capPer := (r.cfg.Base.Streams + r.ring.n - 1) / r.ring.n
	capPer = int(float64(capPer) * r.cfg.PlacementLoadFactor)
	if capPer < 1 {
		capPer = 1
	}
	counts := make([]int, len(r.shards))
	for _, o := range r.owner {
		if r.alive[o] {
			counts[o]++
		}
	}
	for i, o := range r.owner {
		if r.alive[o] {
			continue
		}
		tgt := r.home[i]
		if counts[tgt] >= capPer {
			for _, s := range r.ring.walk(streamKey(i)) {
				if counts[s] < capPer {
					tgt = s
					break
				}
			}
		}
		counts[tgt]++
		r.replaced++
		r.moveOwner(i, o, tgt, e)
	}
}

// moveOwner re-homes one stream outside the migration policy, bumping
// its cluster epoch and carrying any degrade pin along. Called with
// r.mu held.
func (r *Router) moveOwner(stream, from, to int, e float64) {
	r.owner[stream] = to
	r.epoch[stream]++
	r.movePin(stream, from, to)
	if r.cfg.Sink != nil {
		r.cfg.Sink.ClusterEvent(Event{
			Kind: EventRebalance, Shard: to, Stream: stream,
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
	if from >= 0 && from < len(r.shards) && r.alive[from] {
		_ = r.shards[from].PinMode(stream, control.ModeAuto)
	}
	if r.alive[to] {
		_ = r.shards[to].PinMode(stream, control.ModeProposal)
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
		if !r.alive[tgt] {
			r.orphans = append(r.orphans, o)
			continue
		}
		at := o.at
		if !math.IsNaN(at) {
			if at < e {
				at = e
			}
			if tgt != r.home[o.stream] {
				at += r.cfg.HopLatency
			}
		}
		if o.seized {
			r.replayed[o.stream]++
		}
		_ = r.shards[tgt].Submit(o.stream, o.frame, at)
	}
}
