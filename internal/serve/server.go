package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/serve/control"
)

// ErrClosed is returned by Submit, Ingest and Drain after Close.
var ErrClosed = errors.New("serve: server closed")

// EventKind classifies a per-frame serving outcome.
type EventKind string

// The frame outcomes and stream incidents a Sink observes.
const (
	// EventServed fires when the launch serving a frame completes; its
	// Time is the completion instant and Latency the end-to-end
	// (arrival to completion) seconds.
	EventServed EventKind = "served"
	// EventDroppedQueue fires when the queue-overflow policy evicts a
	// frame (the victim may be the arriving frame itself under tail
	// drop).
	EventDroppedQueue EventKind = "dropped-queue"
	// EventDroppedStale fires when a frame is skipped at admission for
	// exceeding MaxStaleness.
	EventDroppedStale EventKind = "dropped-stale"
	// EventDroppedPoison fires when a corrupt submission is swallowed
	// under PoisonDrop: Frame is the wire index as submitted (possibly
	// negative), Arrive the submitted stamp (re-stamped to the current
	// clock when non-finite), Time the decision instant. Pills never
	// touch the clock or the stream's session.
	EventDroppedPoison EventKind = "dropped-poison"
	// EventReconnect fires when a frame-index regression is accepted
	// under a non-rejecting Reconnect policy, before the reconnecting
	// frame's own arrival: Frame is the effective (world) index the
	// reconnecting frame was mapped to, and Epoch the session
	// generation it will be served in.
	EventReconnect EventKind = "reconnect"
	// EventModeSwitch fires when the adaptive control plane moves a
	// stream to a new operating mode at a control tick: Mode is the
	// new mode and Time the decision instant (Arrive/Frame are zero —
	// the switch is a stream-level decision, not a frame outcome).
	EventModeSwitch EventKind = "mode-switch"
	// EventFailedOver fires for each frame Server.FailAt seizes from a
	// dying server — queued or in-flight at the failure instant: Frame
	// is the effective (world) index, Arrive the original arrival stamp
	// and Time the failure instant. What happens to the frame next
	// (replay elsewhere, drop) is the seizing caller's policy — see the
	// cluster FaultPlan.
	EventFailedOver EventKind = "failed-over"
)

// Event is one per-frame serving outcome, reported to the configured
// Sink as it takes effect. Events of one server are emitted in
// nondecreasing Time on the virtual clock: every event is emitted at
// the instant it carries — a served frame at its launch's completion,
// a drop, reconnect, mode switch or failover at its decision instant.
type Event struct {
	Kind   EventKind `json:"kind"`
	Stream int       `json:"stream"`
	Frame  int       `json:"frame"`
	// Arrive is the frame's arrival stamp; Time is when the outcome
	// takes effect on the virtual clock (drop instant, or completion
	// instant for served frames).
	Arrive float64 `json:"arrive_s"`
	Time   float64 `json:"time_s"`
	// Latency is Time-Arrive for served frames, 0 for drops.
	Latency float64 `json:"latency_s,omitempty"`
	// Degraded marks a served frame that ran proposal-only.
	Degraded bool `json:"degraded,omitempty"`
	// Batch is the 1-based dispatch ordinal of a served frame; frames
	// fused into one launch share it.
	Batch int `json:"batch,omitempty"`
	// Epoch is the stream's capture-session generation the frame
	// belongs to: 0 until the stream reconnects under reset-session,
	// then +1 per reset (Frame indices restart within an epoch).
	Epoch int `json:"epoch,omitempty"`
	// Mode attributes the event to a per-stream operating mode (see
	// serve/control): the new mode on a mode-switch event, the mode a
	// served frame ran in on controlled runs. Empty — and the trace
	// bytes unchanged — without an active controller.
	Mode string `json:"mode,omitempty"`
	// full marks a served frame that ran control.ModeFull, which Mode
	// shows only under a controller; unexported, so no trace byte moves.
	full bool
}

// Sink receives per-frame events. Implementations run synchronously on
// the engine, under the server's lock: they must be fast, must not
// block, and must not call back into the Server.
type Sink interface {
	ServeEvent(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// ServeEvent implements Sink.
func (fn SinkFunc) ServeEvent(e Event) { fn(e) }

// Arrival is one frame offered to a Server: stream's frame index
// arriving at virtual time At.
type Arrival struct {
	Stream, Frame int
	At            float64
}

// Source produces arrivals for Server.Ingest. Next returns ok=false
// when the source is exhausted.
type Source interface {
	Next() (Arrival, bool)
}

// channelSource adapts a caller-owned channel to a Source.
type channelSource struct{ ch <-chan Arrival }

func (c channelSource) Next() (Arrival, bool) { a, ok := <-c.ch; return a, ok }

// ChannelSource wraps a channel as a Source: Ingest submits each
// received arrival until the channel closes. Producer goroutines own
// the channel; the serialization through it gives the server a single
// total submission order, so a channel-fed run is deterministic
// whenever the producers' interleaving is.
func ChannelSource(ch <-chan Arrival) Source { return channelSource{ch} }

// sliceSource replays a fixed schedule.
type sliceSource struct {
	arrivals []Arrival
	i        int
}

func (s *sliceSource) Next() (Arrival, bool) {
	if s.i >= len(s.arrivals) {
		return Arrival{}, false
	}
	a := s.arrivals[s.i]
	s.i++
	return a, true
}

// ScheduleSource precomputes the config's preset arrival schedule —
// every stream's frames within Duration, on the configured arrival
// process, perturbed by the configured Chaos — and replays it in
// global virtual-time order. It is the source Run drives the Server
// with; the schedule depends only on (seed, streams, rates, arrival
// process, duration, chaos), never on the fleet shape, so the same
// config always offers the same load.
//
// The stable sort keys on (At, Stream) only: within a stream, per-
// stream submission order is the generation order, which chaos
// renumbering may take backwards through the wire frame indices — the
// very order the Reconnect policies exist to interpret. Fault-free
// schedules have unique (At, Stream) pairs and increasing frame order
// per stream, so their replay is unchanged byte for byte.
func ScheduleSource(cfg Config) Source {
	cfg = cfg.withDefaults()
	var arrivals []Arrival
	for s, ts := range arrivalTimes(cfg) {
		if cfg.Chaos.enabled() {
			arrivals = append(arrivals, chaosStream(cfg, s, ts)...)
			continue
		}
		for k, t := range ts {
			arrivals = append(arrivals, Arrival{Stream: s, Frame: k, At: t})
		}
	}
	sort.SliceStable(arrivals, func(i, j int) bool {
		a, b := arrivals[i], arrivals[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Stream < b.Stream
	})
	return &sliceSource{arrivals: arrivals}
}

// Server is a long-lived, push-based serving fleet on a virtual clock:
// the scheduler, batched executors and backpressure policies of the
// simulator, opened up so callers own the arrival process. Frames are
// pushed with Submit (or pulled from a Source with Ingest); per-frame
// outcomes stream to the configured Sink; Stats returns live
// snapshots; Drain runs the backlog dry and reports the cumulative
// Result.
//
// The engine advances eagerly: Submit(_, _, t) plays every pending
// event up to t before returning, so completions, drops and sink
// events interleave with submission instead of waiting for Drain.
// Submissions that are globally nondecreasing in arrival time (any
// single-goroutine driver, e.g. Run's schedule replay) reproduce the
// closed-loop simulator byte for byte. Methods are safe for concurrent
// use; concurrent submitters stay per-stream causal, but when their
// arrival times race across streams the engine may already have
// advanced past a late submission, which is then admitted at the
// clock (keeping its arrival stamp for latency) — totals stay exact,
// byte-level determinism is only guaranteed for time-ordered
// submission.
type Server struct {
	mu sync.Mutex
	f  *fleet // owns the normalized Config the engine runs
	// Per-stream causality state. lastFrame is the last *effective*
	// (world) frame index admitted; lastArrive the last accepted
	// arrival stamp. rebase maps a stream's wire indices to effective
	// ones (eff = wire + rebase; nonzero only after a resume-with-gap
	// reconnect) and epoch counts its reset-session reconnects.
	lastFrame  []int
	lastArrive []float64
	rebase     []int
	epoch      []int
	closed     bool
}

// New builds a Server for the config. Defaults are applied as in Run;
// the config is validated (see Config.Validate) and the per-stream
// sessions and scheduler are constructed up front, so Submit never
// fails on configuration.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return newServer(cfg, newWorlds(cfg))
}

// NewShared builds a Server like New, but over worlds shared with other
// Servers instead of worlds of its own: between them, the Servers grow
// each frame of a stream's world once, under the stream's lock.
// The worlds must have been built for the same Streams, Seed, Preset,
// FPS and StreamFPS as the normalized config. Sessions, queues and
// books stay the Server's own.
func NewShared(cfg Config, worlds *Worlds) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if worlds == nil {
		return nil, errors.New("serve: Worlds: nil")
	}
	if err := worlds.match(cfg); err != nil {
		return nil, err
	}
	return newServer(cfg, worlds)
}

// newServer builds a Server for a normalized, validated config over
// worlds that match it.
func newServer(cfg Config, worlds *Worlds) (*Server, error) {
	f, err := newFleet(cfg, worlds)
	if err != nil {
		return nil, err
	}
	s := &Server{
		f:          f,
		lastFrame:  make([]int, cfg.Streams),
		lastArrive: make([]float64, cfg.Streams),
		rebase:     make([]int, cfg.Streams),
		epoch:      make([]int, cfg.Streams),
	}
	for i := range s.lastFrame {
		s.lastFrame[i] = -1
	}
	return s, nil
}

// Config returns the server's normalized configuration (defaults
// applied).
func (s *Server) Config() Config { return s.f.cfg }

// Submit offers one frame of a stream to the fleet at virtual time
// arriveAt. frame is the stream's wire index: under the default
// policies it directly indexes the stream's synthetic world (grown on
// demand when a frame is stepped, so memory scales with the largest
// index served — bounded by Config.MaxFrame) and must be strictly
// increasing per stream with nondecreasing arrival times, the
// per-stream order that keeps the tracker sessions causal.
//
// Config.Poison and Config.Reconnect relax the strict contract for
// faulty inputs. A poison pill — non-finite arriveAt, negative frame,
// or frame beyond MaxFrame — errors under PoisonError and is counted,
// sunk and otherwise ignored under PoisonDrop. A frame-index
// regression errors under ReconnectReject and is accepted as a camera
// reconnect otherwise: ReconnectResume rebases the wire index so the
// stream's world continues where it left off, ReconnectReset starts a
// new session epoch and takes the wire index literally. Under a
// non-rejecting Reconnect policy a backwards per-stream arrival stamp
// (a reconnecting camera's skewed clock) is re-stamped to the
// stream's last accepted stamp instead of erroring.
//
// The engine advances to arriveAt before returning (poison pills
// excepted — they leave the clock untouched).
func (s *Server) Submit(stream, frame int, arriveAt float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	cfg := &s.f.cfg
	if stream < 0 || stream >= cfg.Streams {
		return fmt.Errorf("serve: Submit: stream %d out of range [0,%d)", stream, cfg.Streams)
	}

	// Poison classification comes first: a pill carries no usable
	// frame, so no policy below should see it.
	switch {
	case math.IsNaN(arriveAt) || math.IsInf(arriveAt, 0):
		// A non-finite time would defeat the monotonicity checks below
		// (NaN compares false) and poison the clock's time integrals.
		if cfg.Poison == PoisonDrop {
			s.f.dropPoison(stream, frame, arriveAt, s.epoch[stream])
			return nil
		}
		return fmt.Errorf("serve: Submit: stream %d: arrival %v is not a finite time", stream, arriveAt)
	case frame < 0 || frame > cfg.MaxFrame:
		if cfg.Poison == PoisonDrop {
			s.f.dropPoison(stream, frame, arriveAt, s.epoch[stream])
			return nil
		}
		return fmt.Errorf("serve: Submit: stream %d: frame %d outside [0,%d] (MaxFrame bounds the synthetic world)",
			stream, frame, cfg.MaxFrame)
	}

	// Map the wire index to the effective (world) index and detect the
	// reconnect signature. Nothing is committed until the frame is
	// known to be servable, so a pill-sized rebase result cannot
	// corrupt the stream's causality state.
	eff := frame + s.rebase[stream]
	epoch := s.epoch[stream]
	reconnect := eff <= s.lastFrame[stream]
	if reconnect {
		switch cfg.Reconnect {
		case ReconnectResume:
			// Same camera, restarted numbering: continue the world
			// where the outage interrupted it.
			eff = s.lastFrame[stream] + 1
		case ReconnectReset:
			// New capture session: take the wire index literally and
			// replay the world from there under a fresh session epoch.
			eff = frame
			epoch++
		default:
			return fmt.Errorf("serve: Submit: stream %d: frame %d not after %d (frames must be strictly increasing per stream)",
				stream, frame, s.lastFrame[stream])
		}
		if eff > cfg.MaxFrame {
			if cfg.Poison == PoisonDrop {
				s.f.dropPoison(stream, frame, arriveAt, s.epoch[stream])
				return nil
			}
			return fmt.Errorf("serve: Submit: stream %d: reconnect frame %d maps past MaxFrame %d", stream, frame, cfg.MaxFrame)
		}
	}
	if arriveAt < s.lastArrive[stream] {
		if cfg.Reconnect == ReconnectReject {
			return fmt.Errorf("serve: Submit: stream %d: arrival %v before %v (arrival times must be nondecreasing per stream)",
				stream, arriveAt, s.lastArrive[stream])
		}
		// Reconnecting cameras come back with skewed clocks; keep the
		// stream's timeline monotone instead of failing the feed.
		arriveAt = s.lastArrive[stream]
	}

	t := arriveAt
	if t < s.f.now {
		// A concurrent submitter on another stream already advanced the
		// clock past this arrival: admit it now, keeping the original
		// arrival stamp for latency and staleness.
		t = s.f.now
	}
	if reconnect {
		s.rebase[stream] = eff - frame
		s.epoch[stream] = epoch
		// Emitted at the decision instant; the reconnecting frame's own
		// arrival, possibly later, follows it.
		s.f.emit(Event{Kind: EventReconnect, Stream: stream, Frame: eff, Arrive: arriveAt, Time: s.f.now, Epoch: epoch})
	}
	s.lastFrame[stream], s.lastArrive[stream] = eff, arriveAt
	s.f.agenda.add(event{t: t, kind: evArrival, stream: stream, frame: eff, arrive: arriveAt, epoch: epoch})
	s.f.advanceTo(t)
	return nil
}

// Ingest submits every arrival the source yields, in order, stopping
// at the first Submit error.
func (s *Server) Ingest(src Source) error { return Ingest(src, s.Submit) }

// Ingest feeds every arrival src yields to submit, in order, stopping
// at the first error: the one loop behind Server.Ingest and the
// cluster Router's Ingest.
func Ingest(src Source, submit func(stream, frame int, at float64) error) error {
	for {
		a, ok := src.Next()
		if !ok {
			return nil
		}
		if err := submit(a.Stream, a.Frame, a.At); err != nil {
			return err
		}
	}
}

// AdvanceTo plays every pending event up to and including virtual time
// t with no new arrival — completions fire, freed executors pull
// backlog — and moves the clock to t, so a following Stats call
// reflects the fleet as it stands at t rather than at the last
// submission. Times at or before the current clock are a no-op. The
// cluster control plane calls this before reading the saturation
// signals its migration and autoscale decisions key on.
func (s *Server) AdvanceTo(t float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("serve: AdvanceTo: %v is not a finite time", t)
	}
	s.f.advanceTo(t)
	if t > s.f.lastT {
		s.f.tick(t)
	}
	return nil
}

// ResizeAt schedules the fleet's executor count to become n at virtual
// time at (the current clock, if at is already past): the elastic
// capacity knob the cluster autoscaler drives, with any modeled
// provisioning latency folded into at. Growth puts the new executors
// to work on the backlog immediately; shrinking never preempts a
// running batch — busy executors finish their dispatch and then stay
// idle. n may be 0 (a fully parked shard: frames queue, nothing
// serves, no capacity accrues in Result.ExecutorSeconds). Once any
// resize applies, Result reports Resizes/ExecutorSeconds and
// Utilization switches to the busy-over-capacity-integral form.
func (s *Server) ResizeAt(n int, at float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if n < 0 {
		return fmt.Errorf("serve: ResizeAt: executor count %d must be non-negative", n)
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		return fmt.Errorf("serve: ResizeAt: %v is not a finite time", at)
	}
	if at < s.f.now {
		at = s.f.now
	}
	s.f.agenda.add(event{t: at, kind: evResize, execs: n})
	return nil
}

// FailedFrame is one frame seized from a failed Server: the stream, the
// effective (world) frame index as this server had admitted it, the
// original arrival stamp and the capture-session epoch — everything a
// cluster needs to replay the frame on a surviving shard (where the
// index re-enters Submit as a wire index against that shard's own
// causality state, so PR 6 reconnect semantics apply on collision).
type FailedFrame struct {
	Stream int
	Frame  int
	Arrive float64
	Epoch  int
}

// FailAt models the server's hardware dying at virtual time t: the
// engine advances to t, then every in-flight launch is cancelled and
// every queued frame popped — the seized frames are returned in
// dispatch-then-queue order (per-stream frame order preserved), each
// emitted as an EventFailedOver and so booked in StreamStats.FailedOver —
// the agenda is cleared (pending completions, provisioning resizes and
// the armed control tick die with the machine) and the executor count
// drops to 0 until a later ResizeAt revives the shard. A launch
// reaches the books only at its completion, so the in-flight frames it
// seizes were never counted served.
func (s *Server) FailAt(t float64) ([]FailedFrame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("serve: FailAt: %v is not a finite time", t)
	}
	if t < s.f.now {
		t = s.f.now
	}
	s.f.advanceTo(t)
	return s.f.failAt(t), nil
}

// PinMode pins a stream's operating mode, overriding both the adaptive
// control plane and the DegradeDepth policy until the stream is
// unpinned with control.ModeAuto. The cluster's degrade failover uses
// it to hold the streams of a dead shard at proposal-only on their
// fallback shards until the home shard recovers. Pins only affect
// cascade systems — a single-model fleet has no cheaper mode — and
// only frames admitted after the pin; queued frames keep the mode
// resolved at their dispatch.
func (s *Server) PinMode(stream int, mode control.Mode) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if stream < 0 || stream >= s.f.cfg.Streams {
		return fmt.Errorf("serve: PinMode: stream %d out of range [0,%d)", stream, s.f.cfg.Streams)
	}
	switch mode {
	case control.ModeAuto, control.ModeFull, control.ModeCascade, control.ModeProposal:
	default:
		return fmt.Errorf("serve: PinMode: unknown mode %q", mode)
	}
	if s.f.pinned == nil {
		s.f.pinned = make([]control.Mode, s.f.cfg.Streams)
	}
	s.f.pinned[stream] = mode
	return nil
}

// Stats returns a live snapshot: the fleet row (cumulative counters,
// throughput and drop rate over the elapsed makespan, latency
// percentiles over the sliding window of the most recent
// Config.StatsWindow served frames), current queue depth and busy
// executors. Mid-run, Fleet.Served counts only frames whose launch has
// completed; frames in flight are in BusyExecutors, not yet in the
// books.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.stats()
}

// AppendLatencies appends every served latency of the stream, in serve
// order, to dst and returns it; an out-of-range stream returns dst
// unchanged.
func (s *Server) AppendLatencies(dst []float64, stream int) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if stream < 0 || stream >= len(s.f.books.acc) {
		return dst
	}
	return append(dst, s.f.books.acc[stream].latencies...)
}

// Drain plays the agenda dry — every queued and in-flight frame runs
// to completion on the virtual clock, with no further arrivals — and
// returns the cumulative Result. The context is checked between
// events; on cancellation the server keeps its partial state and Drain
// can be called again. Drain does not close the server: more frames
// may be submitted afterwards, and a later Drain extends the same
// accumulated scenario.
func (s *Server) Drain(ctx context.Context) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	for len(s.f.agenda) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.f.handle(s.f.agenda.next())
	}
	return s.f.result(), nil
}

// Close marks the server closed — subsequent Submit, Ingest and Drain
// calls fail with ErrClosed — and stops the engine's step workers,
// returning only once they have exited (a step in progress finishes
// first). Close does not drain — call Drain first if the backlog's
// results matter. Closing twice is a no-op.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.f.closePool()
	return nil
}

// Run executes one closed-loop serving scenario: it builds a Server,
// replays the config's preset arrival schedule through Submit
// (ScheduleSource), drains, and returns the deterministic Result. The
// same Config (seed included) produces a byte-identical Result at any
// executor count and on any machine.
func Run(cfg Config) (*Result, error) {
	srv, err := New(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	if err := srv.Ingest(ScheduleSource(srv.Config())); err != nil {
		return nil, err
	}
	return srv.Drain(context.Background())
}
