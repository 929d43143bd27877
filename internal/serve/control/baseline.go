package control

import (
	"math/rand"
	"sync"
)

// Baseline is the deterministic seeded hysteresis controller: a
// two-threshold band per signal (backlog depth, window p99) with
// per-stream cooldowns.
//
// Per stream, every tick compares backlog depth and the window
// latency percentiles against a two-threshold hysteresis band. A
// backlog at or above HighDepth sheds one quality tier (cascade ->
// proposal); a window p99 at or above HighP99 additionally revokes a
// ModeFull promotion (full -> cascade) — but never sheds below the
// baseline tier, because full-frame refinement inflates the measured
// tail itself (see Tick). A calm stream (backlog at or below
// LowDepth, window p50 at or below LowP99) steps back up; the band
// between the thresholds changes nothing, and a stream that just
// switched is frozen for its cooldown.
//
// Fleet-wide, the controller raises the effective fused-launch size
// to MaxBatch while the shared queue sits at or above BatchDepth
// (amortizing the per-launch constant exactly when there is a backlog
// to fuse) and restores the configured BatchSize when the queue
// drains to LowDepth; under the EDF scheduler it additionally
// tightens the deadline budget of priority (class > 0) streams to
// TightenScale while at least half the fleet is hot — their frames
// are served first and dropped if they cannot be served fresh — and
// relaxes it back at calm.
//
// Determinism: decisions key only on the virtual time and the View.
// The per-stream cooldown jitter (which desynchronizes switches of
// identically-loaded streams) comes from a per-(Seed, stream) seeded
// source, never from global rand, so any tick order over any fleet
// shape draws identical jitter; the unit draws are shared by every
// controller in the process (unitJitter).
type Baseline struct {
	cfg Config

	// Per-stream state, grown on first sight: the virtual time of the
	// stream's last mode switch, its seeded cooldown jitter, and its
	// consecutive-calm-tick streak (for the optional ModeFull
	// promotion).
	lastSwitch []float64
	jitter     []float64
	calmTicks  []int

	// batch is the fleet batch ceiling last emitted (0 until the first
	// tick); dlScale the deadline scale last emitted (1 until
	// tightened).
	batch   int
	dlScale float64

	acts []Action // reused between ticks
}

// ensure grows the per-stream state to n streams, scaling each new
// stream's unit jitter draw (unitJitter) by half the cooldown —
// deterministic regardless of when the fleet shape is first observed.
// Every stream's jitter is set here, at first sight, not at its first
// cooldown check: with an infinite Cooldown the never-switched
// comparison in Tick depends on it.
func (b *Baseline) ensure(n int) {
	if len(b.jitter) >= n {
		return
	}
	units := unitJitter(b.cfg.Seed, n)
	for s := len(b.jitter); s < n; s++ {
		b.jitter = append(b.jitter, units[s]*0.5*b.cfg.Cooldown)
		b.lastSwitch = append(b.lastSwitch, -1e18)
		b.calmTicks = append(b.calmTicks, 0)
	}
}

// unitJitters holds every (Seed, stream) unit jitter drawn so far in
// the process, by Seed, so controllers of one Seed — a cluster's
// shards, the servers a sweep builds — seed each stream's source once
// rather than once per controller. A draw is written once, before it
// is published, and never moved out from under a reader: growth only
// appends past the length any earlier caller was handed.
var unitJitters = struct {
	sync.Mutex
	bySeed map[int64][]float64
}{bySeed: make(map[int64][]float64)}

// unitJitter returns the unit jitter draws of streams 0..n-1 under
// seed: stream s's is the first Float64 of its own seeded source,
// drawn once per process.
func unitJitter(seed int64, n int) []float64 {
	unitJitters.Lock()
	defer unitJitters.Unlock()
	u := unitJitters.bySeed[seed]
	for s := len(u); s < n; s++ {
		u = append(u, rand.New(rand.NewSource(seed*2_147_483_647+int64(s)*92_821+13)).Float64())
	}
	unitJitters.bySeed[seed] = u
	return u[:n:n]
}

// Tick observes the fleet at virtual time now and returns the actions
// to apply, in application order; nil means no change. The View's
// backing arrays are only valid during the call. It runs synchronously
// on the engine under the Server's lock.
func (b *Baseline) Tick(now float64, v View) []Action {
	b.ensure(len(v.Streams))
	b.acts = b.acts[:0]

	hotStreams := 0
	for i := range v.Streams {
		sig := &v.Streams[i]
		// Two pressure signals with different authority. Backlog depth
		// (shedHot) is the only trigger allowed to push a stream BELOW
		// its baseline tier (cascade -> proposal): a deep queue is
		// unambiguous overload. The window p99 (demoteHot) additionally
		// revokes a ModeFull promotion — and only that — because full-
		// frame refinement inflates the very tail being measured, so a
		// p99-keyed shed would chase its own wake: slow full frames sit
		// in the window for a full StatsWindow after demotion and would
		// otherwise walk the stream all the way down to proposal. Calm
		// keys on the median (window p50): a small window's p99 is its
		// max, where one burst straggler would pin the stream "not
		// calm" long after the burst ends — the median recovers as soon
		// as service does.
		shedHot := sig.Queue >= b.cfg.HighDepth
		demoteHot := shedHot || (sig.P99 > 0 && sig.P99 >= b.cfg.HighP99)
		calm := sig.Queue <= b.cfg.LowDepth && sig.P50 <= b.cfg.LowP99
		if demoteHot {
			hotStreams++
		}
		if !v.Cascade {
			continue // single-model streams have one tier
		}
		if sig.Pinned {
			// The serving layer pinned this stream's mode (degrade
			// failover); it still counts toward fleet pressure above,
			// but its mode is not ours to move.
			continue
		}
		if calm {
			b.calmTicks[i]++
		} else {
			b.calmTicks[i] = 0
		}
		if now-b.lastSwitch[i] < b.cfg.Cooldown+b.jitter[i] {
			continue
		}
		cur := sig.Mode
		if cur == ModeAuto {
			cur = ModeCascade
		}
		next := cur
		switch {
		case demoteHot && cur == ModeFull:
			next = ModeCascade
		case shedHot && cur == ModeCascade:
			next = ModeProposal
		case calm && cur == ModeProposal:
			next = ModeCascade
		case calm && cur == ModeCascade && b.cfg.UpgradeFull && b.calmTicks[i] >= b.cfg.FullTicks:
			next = ModeFull
		}
		if next != cur {
			b.acts = append(b.acts, Action{Stream: sig.Stream, Policy: Policy{Mode: next}})
			b.lastSwitch[i] = now
			b.calmTicks[i] = 0
		}
	}

	// Fleet batch sizing: fuse while there is a backlog worth fusing.
	if b.batch == 0 {
		b.batch = v.Batch
	}
	want := b.batch
	switch {
	case v.QueueDepth >= b.cfg.BatchDepth:
		want = b.cfg.MaxBatch
		if want < v.BaseBatch {
			want = v.BaseBatch
		}
	case v.QueueDepth <= b.cfg.LowDepth:
		want = v.BaseBatch
	}
	if want != b.batch {
		b.acts = append(b.acts, Action{Stream: Fleet, Batch: want})
		b.batch = want
	}

	// EDF deadline policy: tighten priority streams while at least half
	// the fleet is hot, relax when the pressure clears. Only meaningful
	// under EDF with a staleness budget; skipped otherwise.
	if v.EDF && v.MaxStaleness > 0 && b.cfg.TightenScale < 1 {
		scale := 1.0
		if 2*hotStreams >= len(v.Streams) && hotStreams > 0 {
			scale = b.cfg.TightenScale
		}
		if scale != b.dlScale {
			b.dlScale = scale
			for i := range v.Streams {
				if v.Streams[i].Class > 0 {
					b.acts = append(b.acts, Action{Stream: v.Streams[i].Stream, Policy: Policy{DeadlineScale: scale}})
				}
			}
		}
	}
	return b.acts
}
