// Package cluster scales the single-fleet serving model of
// internal/serve out to a sharded cluster: a Router partitions the
// streams of one serve.Config across N shard Servers by consistent
// hashing (with a load-aware placement override), migrates a stream off
// a saturated shard at most a bounded number of times — the source
// drains the stream's queued frames, the target re-admits it under a
// bumped cluster epoch, and every frame served off its hash-home shard
// pays a modeled cross-node hop latency on its arrival stamp — and an
// optional autoscaler grows and shrinks each shard's executor count
// from live Stats signals (queue depth, busy executors, sliding-window
// p99) with hysteresis, modeled scale-up latency and rental cost priced
// by the shard's gpumodel.Tier.
//
// The determinism contract is the single-fleet one, cluster-wide: the
// same Config (seed, shards, tiers, policies) produces byte-identical
// merged books on any machine, at any Base.StepWorkers fan-out, because
// every control decision keys on virtual-clock state reached by the
// same deterministic event order. A one-shard cluster with migration
// and autoscaling off reproduces serve.Run byte for byte.
package cluster

import (
	"fmt"
	"math"

	"repro/internal/gpumodel"
	"repro/internal/serve"
)

// Placement constants, echoed in every Result. Each shard contributes
// virtualNodes points to the consistent-hash ring. placementLoadFactor
// caps placement skew: no shard is assigned more than
// floor(factor * ceil(Streams/shards)) streams by the initial placement
// or a failover re-placement; overflow walks the ring to the next shard
// under the cap, and streams placed off their hash home this way pay
// the hop latency like migrated ones.
const (
	virtualNodes        = 64
	placementLoadFactor = 1.25
)

// FailoverPolicy selects what happens to the frames a shard kill
// seizes — everything queued or in flight on the dead shard at the
// failure instant.
type FailoverPolicy string

// The failover policies.
const (
	// FailoverReplay re-submits every seized frame to its stream's new
	// owner shard at the failure tick (re-stamped arrival, hop latency
	// charged off-home); the merged books subtract each replay from
	// Arrived so offered load stays the schedule's. Default.
	FailoverReplay FailoverPolicy = "replay"
	// FailoverDrop abandons seized frames: each is counted in the
	// stream's DroppedFailover channel and never served.
	FailoverDrop FailoverPolicy = "drop"
	// FailoverDegrade replays like FailoverReplay but additionally pins
	// the dead shard's streams to proposal-only mode on their fallback
	// shards until the dead shard revives (see serve.Server.PinMode).
	FailoverDegrade FailoverPolicy = "degrade"
)

// FaultKind classifies one scheduled fault.
type FaultKind string

// The fault kinds.
const (
	// FaultKill takes a shard's hardware down: in-flight and queued
	// frames are seized (see FailoverPolicy), its streams re-place
	// through the live consistent-hash ring, and its executor count
	// drops to zero until a revival.
	FaultKill FaultKind = "kill"
	// FaultRevive brings a killed shard back: capacity returns after
	// the tier's scale-up latency, the ring resizes back, and the bulk
	// rebalancer re-spreads streams across the live shards.
	FaultRevive FaultKind = "revive"
	// FaultAddShard grows the cluster online: a new shard joins the
	// ring (on Fault.Tier, or the config's tier rotation) and the bulk
	// rebalancer shifts streams toward it by tier speed.
	FaultAddShard FaultKind = "add-shard"
)

// Fault is one scheduled fault. Faults execute at the first control
// tick at or after Time, in (Time, declaration order); every field
// carries omitempty so fault-free books stay byte-identical.
type Fault struct {
	// Time is the virtual second the fault becomes due.
	Time float64 `json:"time_s,omitempty"`
	// Kind selects the fault.
	Kind FaultKind `json:"kind,omitempty"`
	// Shard is the victim of a kill or revival. It may name a shard
	// added earlier by an add-shard fault (index Shards, Shards+1, ...);
	// killing a shard not yet born is a no-op.
	Shard int `json:"shard,omitempty"`
	// Tier names the gpumodel tier of an add-shard fault; empty
	// continues the config's GPUTiers rotation.
	Tier string `json:"tier,omitempty"`
}

// FaultPlan is the cluster's deterministic failure schedule: explicit
// scheduled faults, plus an optional seeded stochastic kill/revive
// process. The zero value disables failure injection entirely and
// leaves the cluster byte-identical to a fault-free build.
type FaultPlan struct {
	// Faults are the explicit scheduled faults.
	Faults []Fault `json:"faults,omitempty"`
	// MTBF, when positive, turns on the stochastic process: shard
	// kills arrive with exponentially distributed inter-arrival times
	// of this mean (seconds), each targeting a seeded-uniform victim
	// among the initial shards, until Base.Duration.
	MTBF float64 `json:"mtbf_s,omitempty"`
	// MTTR is the mean of the exponentially distributed downtime each
	// stochastic kill schedules its revival after (default 1 when MTBF
	// is set).
	MTTR float64 `json:"mttr_s,omitempty"`
	// Failover selects the seized-frame policy (default FailoverReplay).
	Failover FailoverPolicy `json:"failover,omitempty"`
	// Seed seeds the stochastic process; 0 uses Base.Seed. The whole
	// schedule is pre-generated at New, so the same plan yields the
	// same faults on any machine at any worker count.
	Seed int64 `json:"seed,omitempty"`
}

// Enabled reports whether the plan injects any fault.
func (p FaultPlan) Enabled() bool { return len(p.Faults) > 0 || p.MTBF > 0 }

// Migration bounds when and how often the Router moves a stream off a
// saturated shard. The zero value disables migration.
type Migration struct {
	// QueueDepth arms migration: a stream becomes a candidate when its
	// per-stream backlog on its shard reaches this depth at a control
	// tick. 0 disables migration entirely.
	QueueDepth int `json:"queue_depth"`
	// Cooldown is the minimum virtual seconds between two migrations
	// off the same source shard (default 2).
	Cooldown float64 `json:"cooldown_s"`
	// MaxPerStream caps how many times one stream may migrate over the
	// scenario (default 1: a hot stream moves once and settles).
	MaxPerStream int `json:"max_per_stream"`
	// MinGain is the minimum total-backlog gap (source queue depth
	// minus target queue depth, in frames) that justifies a move; the
	// gap must exceed it strictly. 0 demands any strict improvement.
	MinGain int `json:"min_gain"`
}

// Autoscale configures the per-shard elastic capacity loop. The zero
// value (Enabled false) pins every shard at Base.Executors.
type Autoscale struct {
	// Enabled turns the autoscaler on. Elastic shards start at Min
	// executors — capacity is rented on demand, not provisioned ahead.
	Enabled bool `json:"enabled"`
	// Interval is the control-tick spacing in virtual seconds (default
	// 0.5). Migration shares the same tick grid.
	Interval float64 `json:"interval_s"`
	// Min and Max bound each shard's executor count (defaults 0 and 8).
	// Min 0 lets an idle shard park completely: frames queue, nothing
	// serves, and no rental cost accrues until load returns.
	Min int `json:"min"`
	Max int `json:"max"`
	// UpQueue is the queue depth that triggers growth (default 3): at
	// depth d >= UpQueue the shard adds d/UpQueue executors (at least
	// one), clamped to Max, effective after the tier's ScaleUpLatency.
	UpQueue int `json:"up_queue"`
	// DownIdle is the hysteresis for release: after this many
	// consecutive fully-idle control ticks (empty queue, no busy
	// executor) the shard drops straight to Min (default 2).
	DownIdle int `json:"down_idle"`
	// P99, when positive, also triggers growth whenever the shard's
	// sliding-window p99 latency exceeds this many seconds.
	P99 float64 `json:"p99_s,omitempty"`
}

// Config describes one cluster scenario: the Base single-fleet scenario
// whose streams are partitioned, plus the cluster topology and control
// policies.
type Config struct {
	// Base is the serving scenario to shard. Every shard Server is
	// built over the full normalized Base (same preset, seed and stream
	// space) and over one set of stream worlds built from it: a world
	// depends only on (preset, seed, stream), so the shards share it,
	// and whichever shard steps a frame first grows it, once, under
	// the stream's lock (see serve.Worlds). The Router routes each
	// stream's frames to exactly one shard at a time.
	// Base.Executors is each shard's static executor count (and the
	// identity echoed in the books); Base.Sink is ignored — use
	// Config.Sink, which sees every shard's events with attribution.
	Base serve.Config

	// Shards is the number of shard Servers (default 2).
	Shards int

	// HopLatency is the modeled cross-node forwarding delay in seconds,
	// added to the arrival stamp of every frame routed to a shard other
	// than its stream's hash home (default 0.002).
	HopLatency float64

	// GPUTiers names the gpumodel tier each shard runs on: one name for
	// a homogeneous cluster, or exactly Shards names. Empty means the
	// reference "titanx" on every shard (which keeps shard timing
	// byte-identical to the untiered Base).
	GPUTiers []string

	// Migration and Autoscale are the control policies; both key on
	// live shard Stats at the shared control-tick grid.
	Migration Migration
	Autoscale Autoscale

	// Faults is the failure-injection plan: scheduled and stochastic
	// shard kills, revivals and online shard additions, executed
	// deterministically on the control-tick grid. The zero value keeps
	// the cluster fault-free and its books byte-identical to a build
	// without the subsystem.
	Faults FaultPlan

	// Sink, when non-nil, receives cluster events: every shard's
	// per-frame serve.Event wrapped with its shard index, plus
	// migration and resize decisions. Like serve.Config.Sink it runs
	// synchronously on the engine and must not call back into the
	// Router.
	Sink Sink
}

// withDefaults fills every unset field with its documented default.
func (c Config) withDefaults() Config {
	if c.Faults.Enabled() {
		if c.Faults.Failover == "" {
			c.Faults.Failover = FailoverReplay
		}
		if c.Faults.MTBF > 0 && c.Faults.MTTR == 0 {
			c.Faults.MTTR = 1
		}
		// Replay re-enters seized frames through Submit on the target
		// shard, where their world indices can collide with the
		// target's own session — exactly the regression the resume
		// reconnect policy interprets. Default it in before the Base
		// normalization freezes "" to the strict reject.
		if c.Faults.Failover != FailoverDrop && c.Base.Reconnect == "" {
			c.Base.Reconnect = serve.ReconnectResume
		}
	}
	c.Base = c.Base.Normalized()
	c.Base.Sink = nil
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.HopLatency == 0 {
		c.HopLatency = 0.002
	}
	if len(c.GPUTiers) == 0 {
		c.GPUTiers = []string{"titanx"}
	}
	if c.Migration.QueueDepth > 0 {
		if c.Migration.Cooldown <= 0 {
			c.Migration.Cooldown = 2
		}
		if c.Migration.MaxPerStream <= 0 {
			c.Migration.MaxPerStream = 1
		}
	}
	if c.Autoscale.Enabled {
		if c.Autoscale.Max <= 0 {
			c.Autoscale.Max = 8
		}
		if c.Autoscale.UpQueue <= 0 {
			c.Autoscale.UpQueue = 3
		}
		if c.Autoscale.DownIdle <= 0 {
			c.Autoscale.DownIdle = 2
		}
	}
	// Migration and failure injection share the autoscaler's
	// control-tick grid even with the autoscaler off.
	if c.controlled() && c.Autoscale.Interval <= 0 {
		c.Autoscale.Interval = 0.5
	}
	return c
}

// Normalized returns the config as New and Run execute it.
func (c Config) Normalized() Config { return c.withDefaults() }

// Validate checks the config exactly as New would see it (defaults
// applied to a copy first) and reports the first violation as a
// field-path error, e.g. "serve/cluster: GPUTiers: len 3 != Shards 2".
func (c Config) Validate() error {
	return c.withDefaults().validate()
}

func (c Config) validate() error {
	fail := func(field, format string, args ...any) error {
		return fmt.Errorf("serve/cluster: %s: %s", field, fmt.Sprintf(format, args...))
	}
	if err := c.Base.Validate(); err != nil {
		return fmt.Errorf("serve/cluster: Base: %w", err)
	}
	if c.HopLatency < 0 || math.IsNaN(c.HopLatency) || math.IsInf(c.HopLatency, 0) {
		return fail("HopLatency", "must be a non-negative finite time, got %v", c.HopLatency)
	}
	if len(c.GPUTiers) != 1 && len(c.GPUTiers) != c.Shards {
		return fail("GPUTiers", "len %d != Shards %d (or 1 for a homogeneous cluster)", len(c.GPUTiers), c.Shards)
	}
	for i, name := range c.GPUTiers {
		if err := c.checkTier(name); err != nil {
			return fail(fmt.Sprintf("GPUTiers[%d]", i), "%v", err)
		}
	}
	// Like the fault-plan rates below, the migration knobs are checked
	// even while migration is off (QueueDepth 0).
	if m := c.Migration; m.QueueDepth < 0 {
		return fail("Migration.QueueDepth", "must be non-negative, got %d", m.QueueDepth)
	} else if m.MinGain < 0 {
		return fail("Migration.MinGain", "must be non-negative, got %d", m.MinGain)
	} else if math.IsNaN(m.Cooldown) || math.IsInf(m.Cooldown, 0) {
		return fail("Migration.Cooldown", "must be a finite time, got %v", m.Cooldown)
	}
	if a := c.Autoscale; a.Enabled {
		if a.Min < 0 {
			return fail("Autoscale.Min", "must be non-negative, got %d", a.Min)
		}
		if a.Max < a.Min {
			return fail("Autoscale.Max", "%d below Min %d", a.Max, a.Min)
		}
		if a.P99 < 0 || math.IsNaN(a.P99) {
			return fail("Autoscale.P99", "must be non-negative, got %v", a.P99)
		}
	}
	if i := c.Autoscale.Interval; c.controlled() && (math.IsNaN(i) || math.IsInf(i, 0)) {
		return fail("Autoscale.Interval", "control tick must be finite, got %v", i)
	}
	// The rate and policy checks run even when the plan is otherwise
	// disabled: a negative MTBF never enables the stochastic process and
	// a disabled plan seizes no frames, but silently ignoring either
	// would hide a config typo.
	if f := c.Faults; f.MTBF < 0 || math.IsNaN(f.MTBF) || math.IsInf(f.MTBF, 0) {
		return fail("Faults.MTBF", "must be a non-negative finite time, got %v", f.MTBF)
	} else if f.MTTR < 0 || math.IsNaN(f.MTTR) || math.IsInf(f.MTTR, 0) {
		return fail("Faults.MTTR", "must be a non-negative finite time, got %v", f.MTTR)
	}
	switch c.Faults.Failover {
	case "", FailoverReplay, FailoverDrop, FailoverDegrade:
	default:
		return fail("Faults.Failover", "unknown policy %q (want %q, %q or %q)",
			c.Faults.Failover, FailoverReplay, FailoverDrop, FailoverDegrade)
	}
	if f := c.Faults; f.Enabled() {
		adds := 0
		for _, ft := range f.Faults {
			if ft.Kind == FaultAddShard {
				adds++
			}
		}
		for i, ft := range f.Faults {
			field := fmt.Sprintf("Faults.Faults[%d]", i)
			if ft.Time < 0 || math.IsNaN(ft.Time) || math.IsInf(ft.Time, 0) {
				return fail(field+".Time", "must be a non-negative finite time, got %v", ft.Time)
			}
			switch ft.Kind {
			case FaultKill, FaultRevive:
				if ft.Shard < 0 || ft.Shard >= c.Shards+adds {
					return fail(field+".Shard", "%d out of range [0,%d) (%d configured shards + %d add-shard faults)",
						ft.Shard, c.Shards+adds, c.Shards, adds)
				}
			case FaultAddShard:
				if ft.Tier != "" {
					if err := c.checkTier(ft.Tier); err != nil {
						return fail(field+".Tier", "%v", err)
					}
				}
			default:
				return fail(field+".Kind", "unknown fault kind %q (want %q, %q or %q)",
					ft.Kind, FaultKill, FaultRevive, FaultAddShard)
			}
		}
		if (f.Failover == FailoverReplay || f.Failover == FailoverDegrade) && c.Base.Reconnect == serve.ReconnectReject {
			return fail("Faults.Failover", "%q replays seized frames into surviving shards, which Base.Reconnect %q rejects; use %q or %q, or the %q failover",
				f.Failover, serve.ReconnectReject, serve.ReconnectResume, serve.ReconnectReset, FailoverDrop)
		}
	}
	return nil
}

// checkTier resolves a catalog tier and validates the timing model a
// shard on it would run: a valid base model can still overflow when a
// slow tier rescales it.
func (c Config) checkTier(name string) error {
	tier, err := gpumodel.TierByName(name)
	if err != nil {
		return err
	}
	if err := c.tierModel(tier).Validate(); err != nil {
		return fmt.Errorf("%s model: %w", name, err)
	}
	return nil
}

// tierModel is the timing model of a shard on the tier: the base model
// (gpumodel.Default when Base.GPU is nil) rescaled by the tier.
func (c Config) tierModel(tier gpumodel.Tier) gpumodel.Model {
	m := gpumodel.Default()
	if c.Base.GPU != nil {
		m = *c.Base.GPU
	}
	return tier.Apply(m)
}

// controlled reports whether any control policy needs the tick grid.
func (c Config) controlled() bool {
	return c.Autoscale.Enabled || c.Migration.QueueDepth > 0 || c.Faults.Enabled()
}
