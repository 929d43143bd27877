// Package control is the serving fleet's adaptive control plane: a
// controller observes per-stream sliding-window statistics at
// virtual-clock control ticks and emits per-stream Policy actions —
// switching a stream between full-refinement / cascaded /
// proposal-only operation, resizing the effective batched-launch
// ceiling under overload, and tightening or relaxing EDF deadline
// budgets for priority classes. It generalizes the binary fleet-wide
// DegradeDepth threshold into a per-stream closed loop, the stream-level
// counterpart of serve/cluster's per-shard autoscaler. Baseline, a
// seeded hysteresis controller, is its one implementation.
//
// A mode changes how a stream's frames are priced, not how they are
// stepped: the detection session runs the full cascade in every mode
// (see Mode).
//
// The determinism contract is the serving engine's own, restated for
// controllers: a controller may key decisions only on the virtual
// clock, its Config (seed included) and the View it is handed — never
// on the wall clock, global rand, or map iteration order. Ticks fire
// at fixed multiples of Config.Interval on the virtual clock, so the
// same scenario replays the same tick instants, the same Views and
// the same actions at any executor count, StepWorkers fan-out or
// shard count; the package is registered in the detlint
// deterministic-package lists to keep that statically checked.
package control

import (
	"fmt"
	"math"
)

// Mode selects how a cascade stream's admitted frames are priced by
// the timing model. Like DegradeDepth, a mode is a timing-model shed
// (or un-shed): the detection session always steps in full, only the
// modeled GPU launches change — see serve.Config.DegradeDepth for
// what that does and does not model.
type Mode string

// The per-stream operating modes, cheapest last.
const (
	// ModeAuto is the zero value and the legacy behavior: the fleet-wide
	// DegradeDepth threshold decides per admission whether the frame
	// runs cascaded or proposal-only. Streams stay in ModeAuto until a
	// controller explicitly moves them, which is what keeps a
	// controller-less run byte-identical to the historical engine.
	ModeAuto Mode = ""
	// ModeFull runs the refinement network on the entire frame (the
	// proposal launch still runs, feeding the tracker): CaTDet's region
	// gating is given up for maximum refinement coverage. The highest
	// quality tier, and the most expensive.
	ModeFull Mode = "full"
	// ModeCascade is the paper's CaTDet cascade: proposal pass plus
	// merged refinement regions. The default quality tier.
	ModeCascade Mode = "cascade"
	// ModeProposal sheds the refinement pass entirely (the DegradeDepth
	// degraded mode, now addressable per stream).
	ModeProposal Mode = "proposal"
)

// Quality is the mode's accuracy proxy: the modeled fraction of
// full-refinement detection quality a frame served in this mode
// retains. The anchors follow the paper's tradeoff: full-frame
// refinement is the reference, the cascade gives up a little recall
// outside its gated regions, and proposal-only keeps only the cheap
// network's quality. ModeAuto frames are cascade frames unless the
// DegradeDepth threshold degraded them, so it carries the cascade
// weight.
func (m Mode) Quality() float64 {
	switch m {
	case ModeFull:
		return 1.0
	case ModeProposal:
		return 0.60
	default:
		return 0.95
	}
}

// valid reports whether m is a known mode.
func (m Mode) valid() bool {
	switch m {
	case ModeAuto, ModeFull, ModeCascade, ModeProposal:
		return true
	}
	return false
}

// Fleet is the Action.Stream value addressing the whole fleet rather
// than one stream (batch resizing is a fleet-wide decision: executors
// gather from the shared queue).
const Fleet = -1

// Policy is the per-stream knob set a controller drives.
type Policy struct {
	// Mode moves the stream to this operating mode; ModeAuto leaves the
	// stream's current mode unchanged (controllers that only want to
	// retime deadlines emit it).
	Mode Mode
	// DeadlineScale, when positive, rescales the stream's effective
	// staleness budget to scale * Config.MaxStaleness: its frames'
	// EDF deadlines tighten (the scheduler serves them sooner) and
	// their stale-drop bound tightens with it (served fresh or not at
	// all). 1 restores the configured budget; 0 leaves it unchanged.
	// A no-op when MaxStaleness is off.
	DeadlineScale float64
}

// Action is one decision of a control tick: a per-stream policy, or a
// fleet-wide batch resize when Stream is Fleet.
type Action struct {
	// Stream is the target stream index, or Fleet.
	Stream int
	// Policy applies to stream-addressed actions.
	Policy Policy
	// Batch, on a Fleet action, sets the effective fused-launch size —
	// how many queued frames one executor may gather into a single
	// batched launch — clamped by the engine to [1, Config.MaxBatch].
	// 0 leaves it unchanged.
	Batch int
}

// StreamSignal is one stream's observation, the per-stream row of a
// View: its backlog and the latency percentiles of its most recent
// serve.Config.StatsWindow served frames (a bounded ring per stream,
// kept only under a controller).
type StreamSignal struct {
	// Stream is the stream index; Class its configured priority class.
	Stream, Class int
	// Mode is the stream's current operating mode (ModeAuto until a
	// controller moves it or the serving layer pins it).
	Mode Mode
	// Pinned reports the stream's mode is pinned by the serving layer
	// (serve.Server.PinMode — the cluster's degrade failover holds
	// re-placed streams at proposal-only until their shard recovers).
	// A pinned stream's mode is not the controller's to move: policy
	// controllers skip it, and its Mode field reports the pinned mode
	// its frames run in.
	Pinned bool
	// Queue is the stream's backlog: its frames waiting in the shared
	// scheduler right now.
	Queue int
	// P50 and P99 are the stream's end-to-end latency percentiles over
	// its served-frame window, in seconds (0 while the window is empty).
	P50, P99 float64
}

// View is the fleet state a control tick observes: exactly the
// signals a controller reads. Slices index by stream; the engine
// reuses the backing arrays between ticks, so controllers must not
// retain them past the Tick call.
type View struct {
	// QueueDepth is the shared queue's total backlog.
	QueueDepth int
	// Batch is the current effective fused-launch ceiling; BaseBatch
	// the configured serve.Config.BatchSize it resets to.
	Batch, BaseBatch int
	// EDF reports the earliest-deadline-first scheduler is active
	// (deadline actions only reorder service under it); MaxStaleness
	// is the configured staleness budget (0 = off).
	EDF          bool
	MaxStaleness float64
	// Cascade reports the fleet serves a cascade system: mode actions
	// are meaningful (single-model streams have exactly one tier).
	Cascade bool
	// Streams is the per-stream signal set, indexed by stream.
	Streams []StreamSignal
}

// Kind names a controller implementation.
type Kind string

// The built-in controllers.
const (
	// KindBaseline selects the deterministic seeded hysteresis
	// controller (see Config's threshold fields).
	KindBaseline Kind = "baseline"
)

// Default control parameters.
const (
	// DefaultInterval is the control-tick spacing in virtual seconds.
	DefaultInterval = 0.25
	// DefaultHighDepth / DefaultLowDepth are the per-stream backlog
	// hysteresis thresholds: a stream is overloaded at or above High,
	// calm at or below Low.
	DefaultHighDepth = 3
	DefaultLowDepth  = 1
	// DefaultHighP99 / DefaultLowP99 are the latency hysteresis
	// thresholds in seconds: a stream is overloaded when its window
	// p99 (the tail) reaches HighP99 and calm when its window p50
	// (the median) is back under LowP99 — the tail detects overload
	// first, the median recovers first.
	DefaultHighP99 = 0.30
	DefaultLowP99  = 0.12
	// DefaultMaxBatch bounds the effective fused-launch size the
	// controller may raise the fleet to.
	DefaultMaxBatch = 8
	// DefaultTightenScale is the deadline-budget scale applied to
	// priority (class > 0) streams while the fleet is overloaded.
	DefaultTightenScale = 0.6
	// DefaultFullTicks is how many consecutive calm ticks a stream must
	// string together before the baseline upgrades it to ModeFull
	// (only when UpgradeFull is set).
	DefaultFullTicks = 4
)

// Config selects and parameterizes a controller. It is declarative
// plain data (JSON-able, copyable): the serving engine constructs the
// stateful controller instance itself, so a cluster sharding one
// serve.Config across N shards gets N independent per-shard
// controllers for free. The zero value means no controller; every
// field is omitempty so echoing the config into a Result never
// perturbs controller-less golden bytes.
type Config struct {
	// Kind selects the controller ("" = none).
	Kind Kind `json:"kind,omitempty"`
	// Interval is the control-tick spacing in virtual seconds
	// (default DefaultInterval). Ticks fire at fixed multiples of the
	// interval, so decision instants are stable under any fleet shape.
	Interval float64 `json:"interval_s,omitempty"`
	// Seed drives the baseline's per-stream cooldown jitter (and any
	// future seeded choices). It is independent of the scenario seed:
	// the engine passes the Config through unchanged, so two scenarios
	// with different seeds draw the same jitter.
	Seed int64 `json:"seed,omitempty"`

	// Baseline hysteresis thresholds (see the Default* constants). A
	// stream at or above HighDepth backlog — or whose window p99
	// meets HighP99 — steps down one quality tier; one at or below
	// LowDepth with its window p50 at or below LowP99 steps back up.
	HighDepth int     `json:"high_depth,omitempty"`
	LowDepth  int     `json:"low_depth,omitempty"`
	HighP99   float64 `json:"high_p99_s,omitempty"`
	LowP99    float64 `json:"low_p99_s,omitempty"`
	// Cooldown is the minimum virtual seconds between two mode
	// switches of the same stream (default 2*Interval), the anti-flap
	// guarantee: a stream switches at most once per cooldown however
	// hard the load oscillates.
	Cooldown float64 `json:"cooldown_s,omitempty"`
	// MaxBatch bounds the effective fused-launch size (default
	// DefaultMaxBatch; never below the configured BatchSize).
	MaxBatch int `json:"max_batch,omitempty"`
	// BatchDepth is the fleet-wide queue depth at or above which the
	// baseline raises the effective batch to MaxBatch (default
	// 2*HighDepth). It decouples the fleet batch trigger from the
	// per-stream hysteresis band so a config can ramp the launch size
	// under backlog without ever stepping stream modes down.
	BatchDepth int `json:"batch_depth,omitempty"`
	// TightenScale is the deadline-budget scale for priority streams
	// under fleet overload (default DefaultTightenScale); 1 disables
	// tightening.
	TightenScale float64 `json:"tighten_scale,omitempty"`
	// UpgradeFull lets the baseline promote a persistently calm stream
	// to ModeFull (off by default: full-frame refinement prices well
	// above the cascade, so promotion only pays on very light fleets).
	UpgradeFull bool `json:"upgrade_full,omitempty"`
	// FullTicks is the consecutive-calm-tick streak required for the
	// ModeFull promotion (default DefaultFullTicks).
	FullTicks int `json:"full_ticks,omitempty"`
}

// Active reports whether a controller is selected: the engine builds
// it and schedules control ticks only then, so a controller-less run
// keeps its historical books byte for byte.
func (c Config) Active() bool { return c.Kind != "" }

// WithDefaults fills every unset field with its documented default.
// The zero Config stays zero (no controller selected, nothing to
// default).
func (c Config) WithDefaults() Config {
	if c.Kind == "" {
		return c
	}
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.HighDepth == 0 {
		c.HighDepth = DefaultHighDepth
	}
	if c.LowDepth == 0 {
		// Default below HighDepth: with HighDepth 1 the only coherent
		// low threshold is an empty backlog, which is also what an
		// explicit LowDepth 0 means.
		c.LowDepth = DefaultLowDepth
		if c.LowDepth >= c.HighDepth {
			c.LowDepth = c.HighDepth - 1
		}
	}
	if c.HighP99 == 0 {
		c.HighP99 = DefaultHighP99
	}
	if c.LowP99 == 0 {
		c.LowP99 = DefaultLowP99
	}
	if c.Cooldown == 0 {
		c.Cooldown = 2 * c.Interval
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.BatchDepth == 0 {
		c.BatchDepth = 2 * c.HighDepth
	}
	if c.TightenScale == 0 {
		c.TightenScale = DefaultTightenScale
	}
	if c.FullTicks == 0 {
		c.FullTicks = DefaultFullTicks
	}
	return c
}

// Validate checks an already-defaulted config and reports the first
// violation as a field-path error rooted at "Control" (the serve
// package prefixes its own package path). The zero value is valid.
func (c Config) Validate() error {
	fail := func(field, format string, args ...any) error {
		return fmt.Errorf("Control.%s: %s", field, fmt.Sprintf(format, args...))
	}
	switch c.Kind {
	case "", KindBaseline:
	default:
		return fail("Kind", "unknown controller %q (want %q, or none)", c.Kind, KindBaseline)
	}
	if c.Kind == "" {
		if c.Interval != 0 {
			return fail("Interval", "control tick %v set but no controller selected (set Kind)", c.Interval)
		}
		return nil
	}
	if c.Interval <= 0 || math.IsNaN(c.Interval) {
		return fail("Interval", "control tick must be positive, got %v", c.Interval)
	}
	if c.Cooldown < 0 || math.IsNaN(c.Cooldown) {
		return fail("Cooldown", "must be non-negative, got %v", c.Cooldown)
	}
	if c.HighDepth < 1 {
		return fail("HighDepth", "must be at least 1, got %d", c.HighDepth)
	}
	if c.LowDepth < 0 || c.LowDepth >= c.HighDepth {
		return fail("LowDepth", "hysteresis band inverted: LowDepth %d not below HighDepth %d", c.LowDepth, c.HighDepth)
	}
	if c.HighP99 <= 0 || math.IsNaN(c.HighP99) {
		return fail("HighP99", "must be positive, got %v", c.HighP99)
	}
	if c.LowP99 < 0 || c.LowP99 >= c.HighP99 || math.IsNaN(c.LowP99) {
		return fail("LowP99", "hysteresis band inverted: LowP99 %v not below HighP99 %v", c.LowP99, c.HighP99)
	}
	if c.MaxBatch < 1 {
		return fail("MaxBatch", "must be at least 1, got %d", c.MaxBatch)
	}
	if c.BatchDepth < 1 {
		return fail("BatchDepth", "must be at least 1, got %d", c.BatchDepth)
	}
	if c.TightenScale <= 0 || c.TightenScale > 1 || math.IsNaN(c.TightenScale) {
		return fail("TightenScale", "outside (0,1], got %v", c.TightenScale)
	}
	if c.FullTicks < 1 {
		return fail("FullTicks", "must be at least 1, got %d", c.FullTicks)
	}
	return nil
}

// New builds the controller cfg selects. The config must already carry
// its defaults (WithDefaults) and validate (Validate rejects unknown
// kinds); serve.Config.Validate guarantees both for configs that
// reached the engine.
func New(cfg Config) *Baseline {
	return &Baseline{cfg: cfg, dlScale: 1}
}
