// Package serve is the online counterpart of internal/sim: a
// deterministic discrete-event model of a serving fleet under live
// multi-stream video load, opened up as a push-based Server. Callers
// push frames with Server.Submit, their own or the config's preset
// arrivals (Schedule); each of the N streams owns a private detection
// session built from the config's sim.SystemSpec, and frames queue for
// a configurable number of GPU executors whose per-frame service time
// comes from the Appendix I gpumodel (region merging and launch
// overhead included). A pluggable scheduler (package sched: fifo,
// fair, priority, edf) decides which waiting frame runs next and which
// one a full queue evicts, and executors can fuse up to BatchSize
// frames into one batched launch (gpumodel.Model.BatchFrames),
// amortizing the per-launch constant across frames. Backpressure
// policies — queue cap with drop-oldest/drop-newest, stale-frame skip,
// degrade-to-proposal-only under overload — shape the tail.
//
// Per-frame outcomes (served, dropped, degraded) stream to a
// caller-provided Sink as they take effect; Server.Stats
// returns live snapshots (throughput, drop rate, queue depth, and
// latency percentiles over a sliding window); Server.Drain runs the
// backlog dry and folds everything into the per-stream, per-class and
// fleet-wide Result.
//
// The closed-loop simulator survives as one driver on top: Run builds
// a Server, replays the config's preset arrival schedule through
// Submit, and drains. Everything runs on a virtual clock; the same
// Config (seed included) always produces a byte-identical Result, at
// any executor count, any Config.StepWorkers fan-out — the engine's
// real CPU work, stepping the per-stream detection sessions, runs on a
// step pool beside the event loop, which reads each result only at a
// virtual time it provably cannot be needed before — and on any
// machine.
package serve

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/gpumodel"
	"repro/internal/serve/control"
	"repro/internal/serve/sched"
	"repro/internal/sim"
	"repro/internal/video"
)

// ArrivalKind selects the per-stream frame arrival process.
type ArrivalKind string

// Arrival processes.
const (
	// FixedFPS emits frames at exactly 1/FPS spacing, with a seeded
	// per-stream phase so streams do not arrive in lockstep.
	FixedFPS ArrivalKind = "fixed"
	// Poisson draws exponential inter-arrival times with mean 1/FPS
	// (bursty camera uplinks, network jitter).
	Poisson ArrivalKind = "poisson"
	// Burst gates the FixedFPS grid through a fleet-wide on/off square
	// wave: every stream offers frames at FPS during the first
	// BurstDuty fraction of each BurstPeriod window and goes silent for
	// the rest — the synchronized rush-hour/diurnal load shape that
	// elastic capacity (see serve/cluster) exists to exploit.
	Burst ArrivalKind = "burst"
)

// DropKind selects which frame a full queue evicts.
type DropKind string

// Queue-overflow policies.
const (
	// DropOldest evicts the head of the queue (the frame that has
	// waited longest) to admit the incoming one: freshest-first.
	DropOldest DropKind = "drop-oldest"
	// DropNewest rejects the incoming frame: tail drop.
	DropNewest DropKind = "drop-newest"
)

// Config describes one serving scenario. The zero value of most fields
// selects a sensible default (see Run); Spec is required.
type Config struct {
	// Spec names the detection system every stream runs (one private
	// instance per stream, so tracker state never crosses streams).
	Spec sim.SystemSpec

	// Preset is the synthetic world each stream draws frames from
	// (stream i plays sequence i of the preset). Zero value means
	// video.KITTIPreset().
	Preset video.Preset

	// Seed drives the world generation and the arrival processes.
	Seed int64

	// Streams is the number of concurrent video streams (default 4).
	Streams int

	// FPS is the per-stream frame arrival rate; 0 means the preset's
	// native rate. The world preset is regenerated at this rate so
	// frame content and arrival cadence agree.
	FPS float64

	// StreamFPS overrides the arrival rate per stream (heterogeneous
	// load, e.g. one hot stream among quiet ones). Empty means every
	// stream arrives at FPS; when set, its length must equal Streams
	// and every rate must be positive.
	//
	// A rate-overridden stream's world is regenerated at its own rate
	// (video.Preset.Rescale), so frame content and arrival cadence
	// agree per stream: objects move, live and spawn with the same
	// per-second statistics as the FPS-rate streams, sampled at the
	// override cadence. Streams at exactly FPS keep the base world
	// byte-identical.
	StreamFPS []float64

	// Arrivals selects the arrival process (default FixedFPS).
	Arrivals ArrivalKind

	// BurstPeriod and BurstDuty shape the Burst arrival process: each
	// BurstPeriod-second window offers load only during its first
	// BurstDuty fraction. Defaults (when Arrivals is Burst) are 2s and
	// 0.5; both are ignored by the other arrival processes.
	BurstPeriod float64
	BurstDuty   float64

	// Duration is the virtual seconds of load offered (default 30).
	// Frames in flight when the load ends are drained and counted.
	Duration float64

	// Executors is the number of identical GPU executors fed from the
	// scheduler (default 1).
	Executors int

	// StepWorkers is the number of goroutines that step the per-stream
	// detection sessions — the engine's real CPU work (default:
	// GOMAXPROCS). Executors are virtual (they shape the discrete-event
	// timeline); StepWorkers is what maps the simulation onto physical
	// cores. Dispatch queues each admitted frame's step and moves on;
	// StepWorkers-1 background goroutines and the goroutine running the
	// engine take steps off the queue, at most 2×StepWorkers per frame
	// of the newest launch outstanding, and never two of one stream at
	// once, so each session sees its frames in arrival order. A launch
	// is priced when the virtual clock reaches its dispatch plus the
	// timing model's smallest possible price for its frame count (launch
	// overhead plus the per-frame CPU overhead of each frame: no
	// completion can come sooner), and only then does the
	// engine wait for its steps — so every value, including 1 (the
	// engine steps everything itself), produces byte-identical Results.
	// Like sim.Engine.Workers it is an execution knob, not scenario
	// identity, and is never serialized into the Result.
	StepWorkers int

	// Scheduler selects the queue discipline deciding which waiting
	// frame an idle executor serves next and which frame a full queue
	// evicts (default sched.FIFO; see package sched for the policies).
	Scheduler sched.Kind

	// Priorities assigns each stream a priority class (higher is
	// served first); only the priority scheduler reads it. Empty
	// means every stream is class 0; when set, its length must equal
	// Streams.
	Priorities []int

	// BatchSize is the maximum number of queued frames one executor
	// fuses into a single batched launch (default 1: the per-frame
	// service of PR 2, priced launch by launch). At 2+, a dispatch
	// gathers up to this many frames and prices them as one launch
	// via gpumodel.Model.BatchFrames — alpha*ΣW + b — amortizing the
	// per-launch constant b across the batch exactly like region
	// merging amortizes it across regions within a frame.
	BatchSize int

	// QueueCap bounds the number of frames waiting in the shared
	// queue (frames in service excluded). 0 means 4*Streams; negative
	// means unbounded.
	QueueCap int

	// Drop is the queue-overflow policy (default DropOldest).
	Drop DropKind

	// MaxStaleness, when positive, skips any frame that has waited
	// longer than this many seconds at the moment an executor would
	// start it (the result would be too old to act on).
	MaxStaleness float64

	// Reconnect selects how Submit treats a per-stream frame-index
	// regression — a camera that dropped out and came back with
	// restarted numbering (default ReconnectReject, the strict
	// historical contract; see ReconnectPolicy for the alternatives).
	Reconnect ReconnectPolicy

	// Poison selects how Submit treats a corrupt submission — a
	// non-finite arrival time, a negative frame index, or a frame
	// index beyond MaxFrame (default PoisonError; PoisonDrop swallows
	// pills without touching the stream's session or stats).
	Poison PoisonPolicy

	// MaxFrame bounds the frame index Submit accepts; larger indices
	// are poison (the synthetic world grows lazily to the largest
	// index submitted, so an unbounded index is an unbounded
	// allocation). 0 means DefaultMaxFrame.
	MaxFrame int

	// Chaos injects operational faults — camera dropouts, variable-fps
	// clients, clock skew, poison pills — into the preset arrival
	// schedule Run replays (Schedule). The zero value is off.
	// Chaos is a pure function of (Config, Seed): a chaotic scenario
	// is exactly as deterministic as a clean one.
	Chaos Chaos

	// DegradeDepth, when positive, degrades service to the proposal
	// network only (the refinement pass is shed) whenever at least
	// this many frames are still waiting behind the one being
	// admitted. Only cascade systems can degrade; single-model
	// streams always run in full.
	//
	// Degradation is a timing-model shed: the frame is priced as a
	// proposal-only launch, but the session still steps in full, so
	// tracker state and detection quality are those of the undegraded
	// system. The reported latency/throughput/drop numbers are what a
	// shedding fleet would see on its queues; the accuracy cost of
	// shedding (worse tracks after an overload burst, hence larger
	// refinement regions while recovering) is not modeled.
	DegradeDepth int

	// Control configures the adaptive control plane (see package
	// serve/control): a controller invoked at virtual-clock control
	// ticks that observes the per-stream sliding-window stats and
	// retunes per-stream policy online — operating mode (full /
	// cascade / proposal-only, generalizing the binary DegradeDepth
	// threshold), effective batch size, and EDF deadline budgets. The
	// zero value (Kind "") is off: no controller is built, no control
	// tick is scheduled, and the books are the controller-less engine's
	// byte for byte — the anchor every adaptive change is measured
	// against.
	Control control.Config

	// GPU overrides the timing model; nil means gpumodel.Default().
	GPU *gpumodel.Model

	// Sink, when non-nil, receives one Event per frame outcome
	// (served, dropped, degraded) as it takes effect. Sinks run
	// synchronously under the server's lock: they must be fast and
	// must not call back into the Server. Never serialized into the
	// Result.
	Sink Sink

	// StatsWindow is the number of most recent served frames whose
	// latencies feed the sliding-window percentiles of Server.Stats
	// and, under a controller, each stream's window p50/p99 in its
	// View (default 256). Without a controller it does not affect the
	// Result.
	StatsWindow int
}

// withDefaults fills every unset field with its documented default.
// Defaulting never fails; Validate reports what remains invalid.
func (c Config) withDefaults() Config {
	if c.Preset.Name == "" {
		c.Preset = video.KITTIPreset()
	}
	if c.Streams <= 0 {
		c.Streams = 4
	}
	if c.FPS <= 0 {
		c.FPS = c.Preset.FPS
	}
	if c.Arrivals == "" {
		c.Arrivals = FixedFPS
	}
	if c.Arrivals == Burst {
		if c.BurstPeriod <= 0 {
			c.BurstPeriod = 2
		}
		if c.BurstDuty <= 0 {
			c.BurstDuty = 0.5
		}
	}
	if c.Duration <= 0 {
		c.Duration = 30
	}
	if c.Executors <= 0 {
		c.Executors = 1
	}
	if c.StepWorkers <= 0 {
		c.StepWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Scheduler == "" {
		c.Scheduler = sched.FIFO
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.QueueCap == 0 {
		c.QueueCap = 4 * c.Streams
	}
	if c.Drop == "" {
		c.Drop = DropOldest
	}
	if c.Reconnect == "" {
		c.Reconnect = ReconnectReject
	}
	if c.Poison == "" {
		c.Poison = PoisonError
	}
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.Chaos.DropoutRate > 0 && c.Chaos.DropoutMeanLen <= 0 {
		c.Chaos.DropoutMeanLen = 2
	}
	if c.StatsWindow <= 0 {
		c.StatsWindow = 256
	}
	c.Control = c.Control.WithDefaults()
	return c
}

// Normalized returns the config as New and Run actually execute it:
// every unset field replaced by its documented default. Useful for
// layers that build derived configs (serve/cluster shards every stream
// of the normalized base across its shard servers) and for asserting
// what a partially-specified scenario will really run.
func (c Config) Normalized() Config { return c.withDefaults() }

// Validate checks the config exactly as New and Run would see it
// (defaults applied to a copy first) and reports the first violation
// as a field-path error, e.g. "serve: StreamFPS: len 3 != Streams 4".
// A nil error means New will accept the config, short of unknown model
// names — those surface from the detector zoo when the sessions are
// built.
func (c Config) Validate() error {
	return c.withDefaults().validate()
}

// validate checks an already-defaulted config.
func (c Config) validate() error {
	fail := func(field, format string, args ...any) error {
		return fmt.Errorf("serve: %s: %s", field, fmt.Sprintf(format, args...))
	}
	if c.Spec.Kind == "" {
		return fail("Spec.Kind", "required")
	}
	switch c.Spec.Kind {
	case sim.Single, sim.Cascaded, sim.CaTDet:
	default:
		return fail("Spec.Kind", "unknown system kind %q", c.Spec.Kind)
	}
	if c.FPS <= 0 {
		return fail("FPS", "preset %q has no native rate and FPS is unset", c.Preset.Name)
	}
	if math.IsNaN(c.FPS) || math.IsInf(c.FPS, 0) {
		return fail("FPS", "must be finite, got %v", c.FPS)
	}
	if math.IsNaN(c.Duration) || math.IsInf(c.Duration, 0) {
		return fail("Duration", "must be finite, got %v", c.Duration)
	}
	if c.Arrivals != FixedFPS && c.Arrivals != Poisson && c.Arrivals != Burst {
		return fail("Arrivals", "unknown arrival process %q", c.Arrivals)
	}
	if c.Arrivals == Burst {
		if c.BurstPeriod <= 0 || math.IsNaN(c.BurstPeriod) {
			return fail("BurstPeriod", "must be positive, got %v", c.BurstPeriod)
		}
		if c.BurstDuty <= 0 || c.BurstDuty > 1 || math.IsNaN(c.BurstDuty) {
			return fail("BurstDuty", "outside (0,1], got %v", c.BurstDuty)
		}
	}
	if len(c.StreamFPS) > 0 && len(c.StreamFPS) != c.Streams {
		return fail("StreamFPS", "len %d != Streams %d", len(c.StreamFPS), c.Streams)
	}
	for s, fps := range c.StreamFPS {
		if fps <= 0 || math.IsNaN(fps) || math.IsInf(fps, 0) {
			return fail(fmt.Sprintf("StreamFPS[%d]", s), "must be positive and finite, got %v", fps)
		}
	}
	switch c.Scheduler {
	case sched.FIFO, sched.Fair, sched.Priority, sched.EDF:
	default:
		return fail("Scheduler", "unknown scheduler %q", c.Scheduler)
	}
	if len(c.Priorities) > 0 && len(c.Priorities) != c.Streams {
		return fail("Priorities", "len %d != Streams %d", len(c.Priorities), c.Streams)
	}
	if c.Drop != DropOldest && c.Drop != DropNewest {
		return fail("Drop", "unknown drop policy %q", c.Drop)
	}
	if c.MaxStaleness < 0 || math.IsNaN(c.MaxStaleness) {
		return fail("MaxStaleness", "must be non-negative, got %v", c.MaxStaleness)
	}
	if c.DegradeDepth < 0 {
		return fail("DegradeDepth", "must be non-negative, got %v", c.DegradeDepth)
	}
	switch c.Reconnect {
	case ReconnectReject, ReconnectResume, ReconnectReset:
	default:
		return fail("Reconnect", "unknown reconnect policy %q", c.Reconnect)
	}
	switch c.Poison {
	case PoisonError, PoisonDrop:
	default:
		return fail("Poison", "unknown poison policy %q", c.Poison)
	}
	if c.MaxFrame <= 0 {
		return fail("MaxFrame", "must be positive, got %d", c.MaxFrame)
	}
	if c.Chaos.DropoutRate < 0 || math.IsNaN(c.Chaos.DropoutRate) {
		return fail("Chaos.DropoutRate", "must be non-negative, got %v", c.Chaos.DropoutRate)
	}
	if c.Chaos.DropoutMeanLen < 0 || math.IsNaN(c.Chaos.DropoutMeanLen) {
		return fail("Chaos.DropoutMeanLen", "must be non-negative, got %v", c.Chaos.DropoutMeanLen)
	}
	if c.Chaos.FPSJitter < 0 || c.Chaos.FPSJitter > 2 || math.IsNaN(c.Chaos.FPSJitter) {
		return fail("Chaos.FPSJitter", "outside [0,2], got %v", c.Chaos.FPSJitter)
	}
	if c.Chaos.ClockSkew < 0 || math.IsNaN(c.Chaos.ClockSkew) || math.IsInf(c.Chaos.ClockSkew, 0) {
		return fail("Chaos.ClockSkew", "must be non-negative and finite, got %v", c.Chaos.ClockSkew)
	}
	if c.Chaos.PoisonRate < 0 || c.Chaos.PoisonRate > 1 || math.IsNaN(c.Chaos.PoisonRate) {
		return fail("Chaos.PoisonRate", "outside [0,1], got %v", c.Chaos.PoisonRate)
	}
	if c.Chaos.Renumber && c.Reconnect == ReconnectReject {
		return fail("Chaos.Renumber", "restarted frame numbering needs Reconnect %q or %q, not %q",
			ReconnectResume, ReconnectReset, c.Reconnect)
	}
	if c.Chaos.PoisonRate > 0 && c.Poison != PoisonDrop {
		return fail("Chaos.PoisonRate", "injected pills need Poison %q, not %q", PoisonDrop, c.Poison)
	}
	if c.GPU != nil {
		if err := c.GPU.Validate(); err != nil {
			return fmt.Errorf("serve: GPU.%w", err)
		}
	}
	if err := c.Control.Validate(); err != nil {
		// control.Config.Validate already roots its message at
		// "Control.<Field>"; prefix the package path like every other
		// field-path error here ("serve: Control.Interval: ...").
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// StreamStats is the outcome of one stream (or, for Result.Fleet, of
// every stream combined).
type StreamStats struct {
	// ID is the stream's sequence identity ("fleet" for the combined
	// row).
	ID string `json:"id"`
	// Arrived is the number of frames the stream offered.
	Arrived int `json:"arrived"`
	// Served is the number of frames that completed service
	// (degraded frames included).
	Served int `json:"served"`
	// DroppedQueue counts frames evicted by the queue-overflow
	// policy; DroppedStale counts frames skipped for exceeding
	// MaxStaleness at admission.
	DroppedQueue int `json:"dropped_queue"`
	DroppedStale int `json:"dropped_stale"`
	// DroppedPoison counts corrupt submissions swallowed under
	// PoisonDrop; pills never reach the queue, so they are outside
	// Arrived and DropRate. Reconnects counts accepted camera
	// reconnects (frame-index regressions) under a non-rejecting
	// Reconnect policy. Both are omitted when zero, which is always
	// the case for a fault-free scenario.
	DroppedPoison int `json:"dropped_poison,omitempty"`
	Reconnects    int `json:"reconnects,omitempty"`
	// FailedOver counts frames seized from this server by a shard kill
	// (Server.FailAt): queued or in-flight when the hardware died,
	// handed back to the cluster to replay or drop. Replayed and
	// DroppedFailover are filled only in cluster rows, merged or live:
	// frames re-submitted to a surviving shard (each replay is
	// subtracted from the cluster row's Arrived so offered load stays
	// the schedule's), and seized frames discarded under the drop
	// failover policy. All three stay 0 — and omitted — on fault-free
	// runs.
	FailedOver      int `json:"failed_over,omitempty"`
	Replayed        int `json:"replayed,omitempty"`
	DroppedFailover int `json:"dropped_failover,omitempty"`
	// Degraded counts served frames that ran proposal-only.
	Degraded int `json:"degraded"`
	// ModeFull counts served frames that ran full-frame refinement
	// (control.ModeFull); zero — and omitted — unless the adaptive
	// control plane promoted the stream.
	ModeFull int `json:"mode_full,omitempty"`
	// Throughput is Served divided by the scenario makespan
	// (Result.LastEventAt), in frames per second. The makespan — not
	// Duration — is the horizon of every time-averaged metric: under
	// overload the drain of in-flight frames extends service well
	// past the offered-load window, and dividing by Duration would
	// overstate the rate the fleet actually sustained.
	Throughput float64 `json:"throughput_fps"`
	// DropRate is (DroppedQueue+DroppedStale)/Arrived.
	DropRate float64 `json:"drop_rate"`
	// Latency summarizes end-to-end (arrival to completion) seconds
	// over served frames.
	Latency LatencySummary `json:"latency"`
}

// Add folds another row's frame counters, Arrived through ModeFull,
// into s: the one fold behind every combined row (fleet, priority
// class, cluster stream and cluster fleet, in a Result or a live
// Stats snapshot). ID and the derived fields
// — Throughput, DropRate, Latency — are left alone; a combined row
// derives them from its own counters and latency samples.
func (s *StreamStats) Add(o StreamStats) {
	s.Arrived += o.Arrived
	s.Served += o.Served
	s.DroppedQueue += o.DroppedQueue
	s.DroppedStale += o.DroppedStale
	s.DroppedPoison += o.DroppedPoison
	s.Reconnects += o.Reconnects
	s.FailedOver += o.FailedOver
	s.Replayed += o.Replayed
	s.DroppedFailover += o.DroppedFailover
	s.Degraded += o.Degraded
	s.ModeFull += o.ModeFull
}

// Derive fills the row's derived fields from its counters: throughput
// over the makespan horizon, drop rate, and the summary of the row's
// latency samples. Every combined row (fleet, priority class, cluster
// stream and cluster fleet, in a Result or a live Stats snapshot)
// derives through it after its Add fold; a Server's live snapshot
// derives through derive, from its memoized window.
func (s *StreamStats) Derive(horizon float64, latencies []float64) {
	s.derive(horizon, summarize(latencies))
}

// derive is Derive with the latency summary already computed.
func (s *StreamStats) derive(horizon float64, lat LatencySummary) {
	if horizon > 0 {
		s.Throughput = float64(s.Served) / horizon
	}
	if s.Arrived > 0 {
		s.DropRate = float64(s.DroppedQueue+s.DroppedStale) / float64(s.Arrived)
	}
	s.Latency = lat
}

// Result is the full outcome of one serving scenario. It is plain data
// with a deterministic JSON encoding: rerunning the same Config yields
// byte-identical output.
type Result struct {
	// Scenario identity.
	System       string      `json:"system"`
	Preset       string      `json:"preset"`
	Seed         int64       `json:"seed"`
	Streams      int         `json:"streams"`
	FPS          float64     `json:"fps"`
	StreamFPS    []float64   `json:"stream_fps,omitempty"`
	Arrivals     ArrivalKind `json:"arrivals"`
	BurstPeriod  float64     `json:"burst_period_s,omitempty"`
	BurstDuty    float64     `json:"burst_duty,omitempty"`
	Duration     float64     `json:"duration_s"`
	Executors    int         `json:"executors"`
	Scheduler    sched.Kind  `json:"scheduler"`
	Priorities   []int       `json:"priorities,omitempty"`
	BatchSize    int         `json:"batch_size"`
	QueueCap     int         `json:"queue_cap"`
	Drop         DropKind    `json:"drop_policy"`
	MaxStaleness float64     `json:"max_staleness_s"`
	DegradeDepth int         `json:"degrade_depth"`

	// Fault-tolerance identity, echoed only when it departs from the
	// strict defaults (so fault-free results keep their historical
	// encoding byte for byte): the reconnect and poison policies, a
	// non-default MaxFrame, and the chaos channels when any is on.
	ReconnectPolicy ReconnectPolicy `json:"reconnect_policy,omitempty"`
	PoisonPolicy    PoisonPolicy    `json:"poison_policy,omitempty"`
	MaxFrame        int             `json:"max_frame,omitempty"`
	Chaos           *Chaos          `json:"chaos,omitempty"`

	// Fleet aggregates every stream; PerStream is indexed by stream.
	Fleet     StreamStats   `json:"fleet"`
	PerStream []StreamStats `json:"per_stream"`

	// PerClass aggregates streams by priority class, highest class
	// first (IDs are "class-N"). Present only under the priority
	// scheduler.
	PerClass []StreamStats `json:"per_class,omitempty"`

	// LastEventAt is the scenario makespan: the virtual time of the
	// last event (the final drain completion under overload, the
	// last arrival otherwise). Throughput, AvgQueueDepth and
	// Utilization are all normalized over [0, LastEventAt] — one
	// shared horizon, so the three metrics are mutually consistent.
	LastEventAt float64 `json:"last_event_at_s"`

	// Elasticity bookkeeping, present only when Server.ResizeAt ever
	// ran (a static fleet keeps its historical encoding byte for
	// byte): Resizes counts applied executor-count changes and
	// ExecutorSeconds is the capacity integral ∫ executors(t) dt over
	// the makespan — the quantity a per-executor price multiplies
	// (see gpumodel.Tier and serve/cluster). Utilization divides the
	// busy integral by this capacity integral, so it can transiently
	// exceed 1 when a scale-down preempts capacity under in-flight
	// batches.
	Resizes         int     `json:"resizes,omitempty"`
	ExecutorSeconds float64 `json:"executor_seconds,omitempty"`

	// Adaptive-control bookkeeping, present only when a controller
	// ran (controller-less results keep their historical encoding
	// byte for byte): the control config, the number of control ticks
	// fired, and the number of per-stream mode switches applied.
	Control      *control.Config `json:"control,omitempty"`
	ControlTicks int             `json:"control_ticks,omitempty"`
	ModeSwitches int             `json:"mode_switches,omitempty"`

	// Batches counts executor dispatches (batched launches); with
	// BatchSize 1 it equals Fleet.Served.
	Batches int `json:"batches"`

	// Queue and executor diagnostics: time-weighted mean and peak
	// depth of the shared queue, busy fraction of the executors, and
	// the largest single service time observed. The time averages
	// integrate over the makespan (LastEventAt).
	AvgQueueDepth float64 `json:"avg_queue_depth"`
	MaxQueueDepth int     `json:"max_queue_depth"`
	Utilization   float64 `json:"utilization"`
	MaxService    float64 `json:"max_service_s"`
}

// QualityServed is the row's accuracy-proxy headline: served frames
// weighted by the modeled detection quality of the mode each ran in
// (control.Mode.Quality — full 1.0, cascaded 0.95, proposal-only
// 0.60). Two configs serving the same frame count can differ sharply
// here: a fleet that sheds to proposal-only early serves more frames
// at less quality each, and this weighted count is the axis the
// adaptive-vs-static Pareto comparison plots against tail latency.
func (s StreamStats) QualityServed() float64 {
	cascaded := s.Served - s.Degraded - s.ModeFull
	return float64(s.ModeFull)*control.ModeFull.Quality() +
		float64(cascaded)*control.ModeCascade.Quality() +
		float64(s.Degraded)*control.ModeProposal.Quality()
}

// DropSpread is the max-min spread of the per-stream drop rates: the
// fairness headline of a scenario. 0 means every stream shed the same
// fraction of its offered load; a large spread means the scheduler let
// some streams starve while others sailed through.
func (r *Result) DropSpread() float64 {
	if len(r.PerStream) == 0 {
		return 0
	}
	lo, hi := r.PerStream[0].DropRate, r.PerStream[0].DropRate
	for _, st := range r.PerStream[1:] {
		if st.DropRate < lo {
			lo = st.DropRate
		}
		if st.DropRate > hi {
			hi = st.DropRate
		}
	}
	return hi - lo
}
