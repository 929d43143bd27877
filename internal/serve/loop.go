package serve

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/gpumodel"
	"repro/internal/ops"
	"repro/internal/serve/control"
	"repro/internal/serve/sched"
	"repro/internal/sim"
)

// Event kinds. At equal virtual times price markers sort first, then
// completions, resizes, control ticks and arrivals. A marker prices a
// launch and schedules its completion no earlier than itself, so
// marking first guarantees that completion is on the agenda before any
// event at the instant is played. An executor freed at t can then
// serve a frame arriving at t, a capacity change effective at t
// governs that frame's dispatch, and a control tick at t observes the
// fleet after completions and resizes but before the instant's
// arrivals — the same before-Submit ordering the cluster control plane
// runs its shard ticks in. A marker is bookkeeping, not a fleet
// event: it neither advances the clock nor dispatches.
const (
	evPriced = iota
	evCompletion
	evResize
	evControl
	evArrival
)

// event is one entry of the virtual-clock agenda. (t, kind, stream,
// frame, epoch, execs) is a total order: a stream never has two events
// of the same kind for the same frame (a launch's price marker and
// completion are keyed by its first frame) — except across
// reset-session reconnects, where frame indices restart and the epoch
// breaks the tie — so pop order does not depend on the heap's layout,
// and the whole simulation is deterministic. arrive is the
// frame's arrival stamp: normally equal to t, earlier only for a frame
// submitted behind the clock (see Server.Submit), whose latency still
// counts from the true arrival. frame is always the effective (world)
// index, post any reconnect rebase.
type event struct {
	t             float64
	kind          int
	stream, frame int
	arrive        float64
	epoch         int
	// execs is the target executor count of an evResize event (see
	// Server.ResizeAt); zero and ignored for the other kinds.
	execs int
}

// before reports whether e plays before o.
func (e *event) before(o *event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	if e.kind != o.kind {
		return e.kind < o.kind
	}
	if e.stream != o.stream {
		return e.stream < o.stream
	}
	if e.frame != o.frame {
		return e.frame < o.frame
	}
	if e.epoch != o.epoch {
		return e.epoch < o.epoch
	}
	return e.execs < o.execs
}

// agenda is a binary min-heap of events under event.before, sifted by
// hand: container/heap would box every event into an interface on both
// Push and Pop.
type agenda []event

// add puts e on the agenda.
func (a *agenda) add(e event) {
	h := append(*a, e)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].before(&h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	*a = h
}

// next removes and returns the earliest event; the agenda must not be
// empty.
func (a *agenda) next() event {
	h := *a
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*a = h
	return top
}

// admitted is one frame an executor pulled from the scheduler, together
// with the operating mode resolved at its admission (fleet.modeOf) and,
// once stepped (stepAdmitted), the frame's pricing components: its
// full dispatch price, used by per-frame launches (effective batch
// <= 1), and its workload, which feeds the fused-launch price under
// batching. Records are reused through fleet.free and never move while
// a step may write them.
type admitted struct {
	job     sched.Job
	mode    control.Mode
	service float64 // effective batch <= 1: this frame's dispatch price
	work    float64 // effective batch > 1: this frame's ops for BatchFrames
	stepped bool    // set under the step pool's lock once the step ran
}

// streamAcc is one stream's row of the books: the frame counters of its
// Result row plus every served latency sample.
type streamAcc struct {
	StreamStats
	latencies []float64
}

// books is the fold of a fleet's event stream: fleet.emit books every
// event before the Sink sees it, so replaying a run's events into fresh
// books reproduces its rows. Arrived, the one row counter no event
// carries, is booked by the engine at each arrival.
type books struct {
	acc []streamAcc
	win *window
	// latWinS[s] rings stream s's last StatsWindow served latencies for
	// the control plane's View; nil without a controller, its only reader.
	latWinS      []*window
	modeSwitches int
}

// book folds one event into the books.
func (b *books) book(e Event) {
	switch e.Kind {
	case EventServed:
		a := &b.acc[e.Stream]
		a.Served++
		if e.Degraded {
			a.Degraded++
		}
		if e.full {
			a.ModeFull++
		}
		a.latencies = append(a.latencies, e.Latency)
		b.win.add(e.Latency)
		if b.latWinS != nil {
			b.latWinS[e.Stream].add(e.Latency)
		}
	case EventDroppedQueue:
		b.acc[e.Stream].DroppedQueue++
	case EventDroppedStale:
		b.acc[e.Stream].DroppedStale++
	case EventDroppedPoison:
		b.acc[e.Stream].DroppedPoison++
	case EventReconnect:
		b.acc[e.Stream].Reconnects++
	case EventFailedOver:
		b.acc[e.Stream].FailedOver++
	case EventModeSwitch:
		b.modeSwitches++
	}
}

// pendingBatch is one in-flight launch, held unrecorded until its
// completion event fires so a failAt between dispatch and completion
// can seize its frames as if the launch never happened. Its n frames
// are the launch's run within fleet.adm, which keeps the in-flight
// frames in dispatch order. at is the dispatch instant and effBatch
// the effective batch size then, which fix the launch's price form;
// (stream, frame, epoch) is its head frame, the identity of its price
// marker and of its completion event at t, set once priced. batch is
// the dispatch ordinal the served events carry.
type pendingBatch struct {
	at       float64
	t        float64
	stream   int
	frame    int
	epoch    int
	batch    int
	n        int
	effBatch int
	priced   bool
}

// arrivalTimes precomputes every stream's frame arrival instants within
// cfg.Duration. The schedule depends only on (seed, stream index,
// arrival process, rate), never on executors or policies, so changing
// the fleet shape replays the exact same offered load.
func arrivalTimes(cfg Config) [][]float64 {
	out := make([][]float64, cfg.Streams)
	for s := range out {
		rate := cfg.FPS
		if len(cfg.StreamFPS) > 0 {
			rate = cfg.StreamFPS[s]
		}
		rng := rand.New(rand.NewSource(cfg.Seed*2_654_435 + int64(s)*104_729 + 37))
		var ts []float64
		switch cfg.Arrivals {
		case Poisson:
			t := rng.ExpFloat64() / rate
			for t < cfg.Duration {
				ts = append(ts, t)
				t += rng.ExpFloat64() / rate
			}
		case Burst:
			// The FixedFPS grid gated through the fleet-wide on/off
			// square wave: all streams share the window boundaries (a
			// synchronized rush hour), each keeps its own seeded phase
			// within it.
			phase := rng.Float64() / rate
			on := cfg.BurstDuty * cfg.BurstPeriod
			for k := 0; ; k++ {
				t := phase + float64(k)/rate
				if t >= cfg.Duration {
					break
				}
				if math.Mod(t, cfg.BurstPeriod) < on {
					ts = append(ts, t)
				}
			}
		default: // FixedFPS
			phase := rng.Float64() / rate
			for k := 0; ; k++ {
				t := phase + float64(k)/rate
				if t >= cfg.Duration {
					break
				}
				ts = append(ts, t)
			}
		}
		out[s] = ts
	}
	return out
}

// fleet is the single-threaded serving engine: the virtual-clock agenda,
// the scheduler, the executors and the per-stream sessions and worlds.
// Server wraps it behind a mutex; nothing here is concurrency-safe on
// its own.
type fleet struct {
	cfg     Config
	gpu     gpumodel.Model
	refCost ops.CostModel
	cascade bool

	// Per-stream state. worlds holds every stream's synthetic
	// sequence, grown on demand and possibly shared with other Servers
	// (see Worlds). sessEpoch[s] is the capture-session
	// generation sessions[s] currently holds: when a frame from a
	// later epoch (a reset-session reconnect) reaches its step, the
	// session is Reset first — lazily, at step time, so frames queued
	// before the reconnect still step against the session that
	// watched them.
	worlds    *Worlds
	sessions  []core.System
	sessEpoch []int

	agenda  agenda
	sched   sched.Scheduler
	busy    int
	batches int

	// pinned[s], when not ModeAuto, overrides both the control plane
	// and the DegradeDepth policy for stream s — the cluster's degrade
	// failover holds re-placed streams at proposal-only with it until
	// their dead shard recovers. The slice is allocated lazily on the
	// first Server.PinMode call, so a never-pinned fleet pays nothing
	// for it.
	pinned []control.Mode

	// queued[s] counts stream s's frames currently waiting in the
	// scheduler (admitted, not yet popped) — the per-stream backlog the
	// cluster router's migration policy keys on. resized flips on the
	// first applied evResize; resizes counts them; capInt integrates
	// the executor-count curve (the capacity a per-executor price
	// multiplies, and the utilization denominator once capacity is no
	// longer constant).
	queued  []int
	resized bool
	resizes int
	capInt  float64
	execs0  int // Config.Executors at construction (Result identity)

	// workers is Config.StepWorkers and pool the pipelined step (see
	// stepPool); bound is its lookahead, the virtual time between a
	// launch's dispatch and its price marker, by the launch's frame
	// count (0: the marker fires at the dispatch instant, before
	// anything else there).
	// adm holds every in-flight frame in dispatch order, each launch's
	// frames one contiguous run, and pend the in-flight launches in the
	// same order (at most the executor count, matched linearly); a
	// launch reuses their capacity rather than allocating, and free
	// holds the admitted records of settled launches for reuse. works
	// is the reused workload vector for batched pricing.
	workers int
	pool    stepPool
	bound   launchBound
	adm     []*admitted
	free    []*admitted
	pend    []pendingBatch
	works   []float64

	sink  Sink
	books books

	// Adaptive control plane (nil/inert without an active
	// Config.Control). ctrl is the per-fleet controller instance; mode,
	// effStale and effBatch are the policy state its actions drive —
	// under ModeAuto, the configured MaxStaleness and BatchSize they
	// are initialized to, so a controller-less run's arithmetic is
	// untouched. tickArmed tracks whether an evControl event is on the
	// agenda: ticks self-reschedule while work is pending and go
	// dormant on an idle fleet (so Drain terminates), re-armed by the
	// next arrival at the next fixed Interval multiple.
	ctrl         *control.Baseline
	mode         []control.Mode
	effStale     []float64
	effBatch     int
	tickArmed    bool
	controlTicks int
	view         control.View // reused tick scratch

	now, lastT        float64
	depthInt, busyInt float64 // time integrals of queue depth / busy executors
	maxDepth          int
	maxService        float64
}

// newFleet builds the engine for a normalized, validated config over
// worlds that match it.
func newFleet(cfg Config, worlds *Worlds) (*fleet, error) {
	f := &fleet{
		cfg:     cfg,
		worlds:  worlds,
		gpu:     gpumodel.Default(),
		cascade: cfg.Spec.Kind != sim.Single,
		sink:    cfg.Sink,
		books:   books{acc: make([]streamAcc, cfg.Streams), win: newWindow(cfg.StatsWindow)},
		workers: cfg.StepWorkers,
		execs0:  cfg.Executors,
	}
	if cfg.GPU != nil {
		f.gpu = *cfg.GPU
	}
	f.bound = newLaunchBound(f.gpu, f.cascade)
	f.initPool(cfg.Streams, cfg.StepWorkers)
	var err error
	f.sched, err = sched.New(cfg.Scheduler, sched.Config{
		Cap:        cfg.QueueCap,
		DropNewest: cfg.Drop == DropNewest,
		Streams:    cfg.Streams,
	})
	if err != nil {
		return nil, err
	}
	if f.cascade {
		if f.refCost, err = ops.NewCostModel(cfg.Spec.Refinement); err != nil {
			return nil, err
		}
	}

	// A preset that models degraded imaging (night/low-light packs)
	// scales every detector's noise channels; the knob composes with
	// any scale the caller already put on the spec.
	spec := cfg.Spec
	if n := cfg.Preset.DetectorNoise; n > 0 && n != 1 {
		if spec.NoiseScale <= 0 {
			spec.NoiseScale = 1
		}
		spec.NoiseScale *= n
	}
	classes := cfg.Preset.ClassList()
	f.sessions = make([]core.System, cfg.Streams)
	f.sessEpoch = make([]int, cfg.Streams)
	// Sized for one single-frame launch per executor, so a fleet that
	// never batches or resizes never grows them.
	f.adm = make([]*admitted, 0, cfg.Executors)
	f.pend = make([]pendingBatch, 0, cfg.Executors)
	f.queued = make([]int, cfg.Streams)
	f.mode = make([]control.Mode, cfg.Streams)
	f.effStale = make([]float64, cfg.Streams)
	f.effBatch = cfg.BatchSize
	for s := range f.effStale {
		f.effStale[s] = cfg.MaxStaleness
	}
	if cfg.Control.Active() {
		f.ctrl = control.New(cfg.Control)
		f.view.Streams = make([]control.StreamSignal, cfg.Streams)
		f.books.latWinS = make([]*window, cfg.Streams)
		for s := range f.books.latWinS {
			f.books.latWinS[s] = newWindow(cfg.StatsWindow)
		}
	}
	for s := 0; s < cfg.Streams; s++ {
		sys, err := spec.Build(classes)
		if err != nil {
			return nil, err
		}
		sys.Reset(worlds.seq(s))
		f.sessions[s] = sys
	}
	return f, nil
}

// advanceTo processes every agenda event up to and including virtual
// time t, in (t, kind, stream, frame) order.
func (f *fleet) advanceTo(t float64) {
	for len(f.agenda) > 0 && f.agenda[0].t <= t {
		f.handle(f.agenda.next())
	}
}

// handle plays one event: advance the clock, apply the event, then let
// idle executors pull work. A price marker does none of that; it only
// prices its launch.
func (f *fleet) handle(e event) {
	if e.kind == evPriced {
		f.priceMarked(e)
		return
	}
	f.tick(e.t)
	switch e.kind {
	case evArrival:
		f.books.acc[e.stream].Arrived++
		f.admit(f.job(e.stream, e.frame, e.arrive, e.epoch))
		f.armTick(e.t)
	case evCompletion:
		f.busy--
		f.settle(e)
	case evControl:
		f.controlTick(e.t)
	case evResize:
		// Capacity changes take effect on the virtual clock like any
		// other event; the dispatch below immediately puts grown
		// capacity to work on the backlog. Shrinking never preempts a
		// running batch — busy executors finish and then stay idle.
		f.resized = true
		if e.execs != f.cfg.Executors {
			f.cfg.Executors = e.execs
			f.resizes++
		}
	}
	f.dispatch()
}

// emit is the one place a frame outcome reaches the books: it folds the
// event into them, then hands it to the sink, if any. Sinks run
// synchronously on the engine (under the Server's lock): they must be
// fast and must not call back into the Server.
func (f *fleet) emit(e Event) {
	f.books.book(e)
	if f.sink != nil {
		f.sink.ServeEvent(e)
	}
}

// tick advances the virtual clock to t, integrating the queue-depth and
// busy-executor curves over the elapsed interval.
func (f *fleet) tick(t float64) {
	dt := t - f.lastT
	f.depthInt += dt * float64(f.sched.Len())
	f.busyInt += dt * float64(f.busy)
	f.capInt += dt * float64(f.cfg.Executors)
	f.lastT = t
	f.now = t
}

// armTick puts the next control tick on the agenda, if a controller is
// active and none is pending. Ticks fire at fixed multiples of the
// control interval — the first strict grid point after now — so the
// decision instants of a scenario are stable regardless of when load
// arrives, the property the determinism tests pin. Called on every
// arrival: while the fleet has work the tick self-reschedules, and
// when it goes dormant on an idle fleet the next arrival re-arms it
// here.
func (f *fleet) armTick(now float64) {
	if f.ctrl == nil || f.tickArmed {
		return
	}
	iv := f.cfg.Control.Interval
	t := (math.Floor(now/iv) + 1) * iv
	if t <= now { // guard float edge at exact grid points
		t += iv
	}
	f.agenda.add(event{t: t, kind: evControl})
	f.tickArmed = true
}

// controlTick runs one control decision: build the sliding-window view,
// let the controller emit actions, apply them, and re-arm the next
// tick while queued or in-flight work remains. With the fleet idle the
// tick chain goes dormant instead of self-rescheduling — an armed tick
// on an empty agenda would make Server.Drain spin forever — and the
// next arrival re-arms it on the same fixed grid.
func (f *fleet) controlTick(t float64) {
	f.controlTicks++
	f.tickArmed = false
	for _, a := range f.ctrl.Tick(t, f.buildView()) {
		f.apply(a, t)
	}
	if f.sched.Len() > 0 || f.busy > 0 {
		f.agenda.add(event{t: t + f.cfg.Control.Interval, kind: evControl})
		f.tickArmed = true
	}
}

// buildView assembles the control.View for a tick from the per-stream
// sliding windows, reusing the fleet's scratch (controllers must not
// retain it).
func (f *fleet) buildView() control.View {
	f.view.QueueDepth = f.sched.Len()
	f.view.Batch = f.effBatch
	f.view.BaseBatch = f.cfg.BatchSize
	f.view.EDF = f.cfg.Scheduler == sched.EDF
	f.view.MaxStaleness = f.cfg.MaxStaleness
	f.view.Cascade = f.cascade
	for s := range f.view.Streams {
		sig := &f.view.Streams[s]
		sig.Stream = s
		sig.Class = f.class(s)
		_, sig.Mode = f.modeOf(s)
		sig.Pinned = f.pin(s) != control.ModeAuto
		sig.Queue = f.queued[s]
		lat := f.books.latWinS[s].summary()
		sig.P50, sig.P99 = lat.P50, lat.P99
	}
	return f.view
}

// apply commits one controller action, clamping defensively: out-of-
// range streams are ignored, batch requests clamp to [1, MaxBatch].
// Mode switches are emitted (EventModeSwitch) at the decision instant.
func (f *fleet) apply(a control.Action, now float64) {
	if a.Stream == control.Fleet {
		if a.Batch > 0 {
			b := a.Batch
			if b > f.cfg.Control.MaxBatch {
				b = f.cfg.Control.MaxBatch
			}
			f.effBatch = b
		}
		return
	}
	if a.Stream < 0 || a.Stream >= f.cfg.Streams {
		return
	}
	if m := a.Policy.Mode; m != control.ModeAuto && m != f.mode[a.Stream] && f.cascade {
		f.mode[a.Stream] = m
		f.emit(Event{Kind: EventModeSwitch, Stream: a.Stream, Time: now, Mode: string(m)})
	}
	if s := a.Policy.DeadlineScale; s > 0 && f.cfg.MaxStaleness > 0 {
		f.effStale[a.Stream] = f.cfg.MaxStaleness * s
	}
}

// admit offers an arriving frame to the scheduler and emits the victim,
// if the policy evicted one to stay under the cap.
func (f *fleet) admit(j sched.Job) {
	f.queued[j.Stream]++
	if victim, dropped := f.sched.Admit(j); dropped {
		f.queued[victim.Stream]--
		f.emit(Event{
			Kind: EventDroppedQueue, Stream: victim.Stream, Frame: victim.Frame,
			Arrive: victim.Arrive, Time: f.now, Epoch: victim.Epoch,
		})
	}
	if d := f.sched.Len(); d > f.maxDepth {
		f.maxDepth = d
	}
}

// dispatch hands queued frames to idle executors until one of the two
// runs out. Gathering is serial — up to the effective batch size of
// frames per launch, with the stale-skip and degrade policies applied
// per frame as it pops — and touches only the scheduler and the clock,
// never a step result, so launches are gathered and numbered exactly
// as the serial engine would. Each launch's frames are queued on the
// step pool, and the launch is priced when its evPriced marker fires
// its lookahead later — b + cpu·n for n frames, the floor of its own
// price: only then is its completion event scheduled. With
// no lookahead the marker lands on the dispatch instant itself, and
// since dispatch runs only from handle — inside advanceTo or Drain,
// which play the agenda through that instant — and markers sort first
// at equal times, the launch is priced before anything else happens
// there. A launch reaches the books when its completion fires
// (settle); until then its frames wait in adm and the launch in pend.
func (f *fleet) dispatch() {
	for f.busy < f.cfg.Executors && f.sched.Len() > 0 {
		start := len(f.adm)
		f.gather()
		if len(f.adm) == start {
			continue // every candidate was stale; re-check the queue
		}
		f.busy++
		f.batches++
		head, n := f.adm[start].job, len(f.adm)-start
		f.pend = append(f.pend, pendingBatch{
			at: f.now, stream: head.Stream, frame: head.Frame, epoch: head.Epoch,
			batch: f.batches, n: n, effBatch: f.effBatch,
		})
		f.launch(f.adm[start:])
		f.agenda.add(event{t: f.now + f.bound.minService(n), kind: evPriced,
			stream: head.Stream, frame: head.Frame, epoch: head.Epoch})
	}
}

// priceMarked prices the launch whose marker just fired: the unpriced
// launch with the marker's head frame. At most Executors launches are
// in flight, so the linear match is cheap.
func (f *fleet) priceMarked(e event) {
	off := 0
	for i := range f.pend {
		p := &f.pend[i]
		if !p.priced && p.stream == e.stream && p.frame == e.frame && p.epoch == e.epoch {
			f.price(p, f.adm[off:off+p.n])
			return
		}
		off += p.n
	}
}

// priceRest prices every launch still unpriced, in dispatch order:
// failAt's join of the steps in flight.
func (f *fleet) priceRest() {
	off := 0
	for i := range f.pend {
		p := &f.pend[i]
		if !p.priced {
			f.price(p, f.adm[off:off+p.n])
		}
		off += p.n
	}
}

// price waits for the steps of launch p's frames, prices the launch in
// the batch form of its dispatch and schedules its completion at
// dispatch plus service. The completion cannot precede the marker:
// service >= the launch's minService, and adding the same dispatch
// instant to both is monotone.
func (f *fleet) price(p *pendingBatch, batch []*admitted) {
	f.join(batch)
	service := f.priceBatch(batch, p.effBatch)
	if service > f.maxService {
		f.maxService = service
	}
	p.t, p.priced = p.at+service, true
	f.agenda.add(event{t: p.t, kind: evCompletion, stream: p.stream, frame: p.frame, epoch: p.epoch})
}

// account emits a launch's frames as served at its completion instant
// done, one EventServed each. settle calls it when the completion event
// fires, so the books, the controller's latency windows and the sink
// see a frame only once it has actually finished.
func (f *fleet) account(batch []*admitted, done float64, batchNo int) {
	for _, adm := range batch {
		ev := Event{
			Kind: EventServed, Stream: adm.job.Stream, Frame: adm.job.Frame,
			Arrive: adm.job.Arrive, Time: done,
			Latency: done - adm.job.Arrive, Degraded: adm.mode == control.ModeProposal,
			Batch: batchNo, Epoch: adm.job.Epoch, full: adm.mode == control.ModeFull,
		}
		if f.ctrl != nil { // trace bytes carry the mode only on controlled runs
			ev.Mode = string(adm.mode)
		}
		f.emit(ev)
	}
}

// settle accounts the launch whose completion event just fired and
// retires it. At most Executors launches are in flight, so the linear
// match is cheap; the (t, stream, frame, epoch) key is unique among
// live launches — a head frame can only reappear after the launch
// holding it was seized by failAt, which empties pend first. Removal
// closes the gap in adm and pend rather than swapping, keeping both in
// the dispatch order failAt seizes in; the launch's admitted records
// go back to the free list.
func (f *fleet) settle(e event) {
	off := 0
	for i := range f.pend {
		p := &f.pend[i]
		if p.priced && p.t == e.t && p.stream == e.stream && p.frame == e.frame && p.epoch == e.epoch {
			f.account(f.adm[off:off+p.n], p.t, p.batch)
			f.free = append(f.free, f.adm[off:off+p.n]...)
			f.adm = append(f.adm[:off], f.adm[off+p.n:]...)
			f.pend = append(f.pend[:i], f.pend[i+1:]...)
			return
		}
		off += p.n
	}
}

// failAt is the engine half of Server.FailAt at virtual time t.
// Dispatch-then-queue order keeps each stream's timeline monotone for a
// caller replaying the seized frames elsewhere. Launches still waiting
// for their price marker are joined and priced first, so the sessions
// have stepped and Result.MaxService counts exactly what the serial
// engine, which prices at dispatch, would.
func (f *fleet) failAt(t float64) []FailedFrame {
	f.tick(t)
	f.priceRest()
	var seized []FailedFrame
	grab := func(j sched.Job) {
		f.emit(Event{
			Kind: EventFailedOver, Stream: j.Stream, Frame: j.Frame,
			Arrive: j.Arrive, Time: t, Epoch: j.Epoch,
		})
		seized = append(seized, FailedFrame{Stream: j.Stream, Frame: j.Frame, Arrive: j.Arrive, Epoch: j.Epoch})
	}
	for _, a := range f.adm {
		grab(a.job)
	}
	f.free = append(f.free, f.adm...)
	f.adm, f.pend = f.adm[:0], f.pend[:0]
	for f.sched.Len() > 0 {
		j, ok := f.sched.Next()
		if !ok {
			break
		}
		f.queued[j.Stream]--
		grab(j)
	}
	f.agenda = f.agenda[:0]
	f.tickArmed = false
	f.busy = 0
	f.resized = true
	if f.cfg.Executors != 0 {
		f.cfg.Executors = 0
		f.resizes++
	}
	return seized
}

// gather pulls up to the effective batch size of servable frames from
// the scheduler into f.adm, applying the stale-skip policy and
// resolving each frame's mode (modeOf) as it pops. The stale bound is
// the stream's effective staleness budget (the configured MaxStaleness
// until a controller rescales it), checked in the same subtraction
// form as always so a unit-scale budget is bit-identical to the
// historical arithmetic.
func (f *fleet) gather() {
	start := len(f.adm)
	for len(f.adm)-start < f.effBatch && f.sched.Len() > 0 {
		j, ok := f.sched.Next()
		if !ok {
			break
		}
		f.queued[j.Stream]--
		if f.cfg.MaxStaleness > 0 && f.now-j.Arrive > f.effStale[j.Stream] {
			f.emit(Event{
				Kind: EventDroppedStale, Stream: j.Stream, Frame: j.Frame,
				Arrive: j.Arrive, Time: f.now, Epoch: j.Epoch,
			})
			continue
		}
		mode, _ := f.modeOf(j.Stream)
		a := f.newAdmitted()
		*a = admitted{job: j, mode: mode}
		f.adm = append(f.adm, a)
	}
}

// modeOf is the one place a stream's operating mode is decided. The pin
// wins (Server.PinMode), then the control plane's per-stream mode, then
// — for a stream left in control.ModeAuto — the legacy DegradeDepth
// rule: shed to proposal-only while at least DegradeDepth frames wait
// in the scheduler. configured stops before that backlog rule; it is
// the mode Stats and the control view report. mode is what a frame
// popped now runs in, so the rule stays per frame, evaluated at gather.
// A single-model fleet has one tier: both are ModeAuto.
func (f *fleet) modeOf(s int) (mode, configured control.Mode) {
	if !f.cascade {
		return control.ModeAuto, control.ModeAuto
	}
	if configured = f.pin(s); configured == control.ModeAuto {
		configured = f.mode[s]
	}
	if configured == control.ModeAuto && f.cfg.DegradeDepth > 0 && f.sched.Len() >= f.cfg.DegradeDepth {
		return control.ModeProposal, configured
	}
	return configured, configured
}

// pin reads stream s's pinned mode; ModeAuto (the zero value) when the
// fleet was never pinned.
func (f *fleet) pin(s int) control.Mode {
	if f.pinned == nil {
		return control.ModeAuto
	}
	return f.pinned[s]
}

// newAdmitted returns a record from the free list, or a new one.
func (f *fleet) newAdmitted() *admitted {
	if n := len(f.free); n > 0 {
		a := f.free[n-1]
		f.free = f.free[:n-1]
		return a
	}
	return new(admitted)
}

// priceBatch folds the batch's step results into the launch's service
// time, under the effective batch size of its dispatch: a single-frame
// launch under effective batch 1 keeps the per-frame, launch-by-launch
// pricing; larger batches fuse into one launch via
// gpumodel.Model.BatchFrames. A control tick between dispatch and the
// price marker may move the fleet's effective batch size, so the form
// is the one recorded at dispatch, where the frames were gathered.
func (f *fleet) priceBatch(batch []*admitted, effBatch int) float64 {
	if effBatch <= 1 {
		return batch[0].service
	}
	f.works = f.works[:0]
	for _, a := range batch {
		f.works = append(f.works, a.work)
	}
	return f.gpu.BatchFrames(f.works, frameCPU(f.gpu, f.cascade)).Total
}

// job builds the scheduler job for an arriving frame: the deadline is
// arrive plus the stream's effective staleness budget (arrive itself
// when staleness is off), the class is the stream's configured
// priority, and the epoch its capture-session generation. The
// effective budget is MaxStaleness until the control plane rescales
// it (Policy.DeadlineScale), which moves both the EDF ordering and
// the stale-drop bound together.
func (f *fleet) job(stream, frame int, arrive float64, epoch int) sched.Job {
	j := sched.Job{Stream: stream, Frame: frame, Arrive: arrive, Deadline: arrive,
		Class: f.class(stream), Epoch: epoch}
	if f.cfg.MaxStaleness > 0 {
		j.Deadline += f.effStale[stream]
	}
	return j
}

// class is the stream's configured priority class (0 without
// Priorities).
func (f *fleet) class(stream int) int {
	if len(f.cfg.Priorities) > 0 {
		return f.cfg.Priorities[stream]
	}
	return 0
}

// dropPoison emits a poison pill as dropped. Pills deliberately leave
// the virtual clock, the causality state and the session untouched, so
// a run's books with and without a pill differ only in DroppedPoison —
// the isolation the PoisonDrop policy promises. A non-finite arrival
// stamp is re-stamped to the current clock for the sink (NaN would
// break JSON trace encoders downstream).
func (f *fleet) dropPoison(stream, frame int, arrive float64, epoch int) {
	if math.IsNaN(arrive) || math.IsInf(arrive, 0) {
		arrive = f.now
	}
	f.emit(Event{
		Kind: EventDroppedPoison, Stream: stream, Frame: frame,
		Arrive: arrive, Time: f.now, Epoch: epoch,
	})
}

// stats folds the live counters into a snapshot. Its fleet row is
// derived like Result.Fleet over the makespan so far, with the latency
// of the sliding window of the most recent StatsWindow served frames.
func (f *fleet) stats() Stats {
	st := Stats{
		Now:            f.lastT,
		Fleet:          StreamStats{ID: "fleet"},
		QueueDepth:     f.sched.Len(),
		BusyExecutors:  f.busy,
		Executors:      f.cfg.Executors,
		PerStreamQueue: append([]int(nil), f.queued...),
	}
	for s := range f.books.acc {
		st.Fleet.Add(f.books.acc[s].StreamStats)
	}
	st.Fleet.derive(st.Now, f.books.win.summary())
	return st
}

// result folds the accumulated counters into the Result, in stream
// order. Every time-averaged metric — throughput, average queue
// depth, utilization — is normalized over the makespan (LastEventAt),
// the one shared horizon.
func (f *fleet) result() *Result {
	cfg := f.cfg
	r := &Result{
		Preset:        cfg.Preset.Name,
		Seed:          cfg.Seed,
		Streams:       cfg.Streams,
		FPS:           cfg.FPS,
		StreamFPS:     cfg.StreamFPS,
		Arrivals:      cfg.Arrivals,
		Duration:      cfg.Duration,
		Executors:     f.execs0,
		Scheduler:     cfg.Scheduler,
		Priorities:    cfg.Priorities,
		BatchSize:     cfg.BatchSize,
		QueueCap:      cfg.QueueCap,
		Drop:          cfg.Drop,
		MaxStaleness:  cfg.MaxStaleness,
		DegradeDepth:  cfg.DegradeDepth,
		LastEventAt:   f.lastT,
		Batches:       f.batches,
		MaxQueueDepth: f.maxDepth,
		MaxService:    f.maxService,
	}
	// Echo the fault-tolerance identity only when it departs from the
	// strict defaults, keeping fault-free results byte-identical to
	// their historical encoding.
	if cfg.Reconnect != ReconnectReject {
		r.ReconnectPolicy = cfg.Reconnect
	}
	if cfg.Poison != PoisonError {
		r.PoisonPolicy = cfg.Poison
	}
	if cfg.MaxFrame != DefaultMaxFrame {
		r.MaxFrame = cfg.MaxFrame
	}
	if cfg.Chaos.enabled() {
		ch := cfg.Chaos
		r.Chaos = &ch
	}
	if cfg.Arrivals == Burst {
		r.BurstPeriod = cfg.BurstPeriod
		r.BurstDuty = cfg.BurstDuty
	}
	if f.resized {
		r.Resizes = f.resizes
		r.ExecutorSeconds = f.capInt
	}
	if f.ctrl != nil {
		// Echo the control-plane identity and totals only for
		// controlled runs: controller-less results keep their
		// historical encoding byte for byte.
		cc := cfg.Control
		r.Control = &cc
		r.ControlTicks = f.controlTicks
		r.ModeSwitches = f.books.modeSwitches
	}
	if len(f.sessions) > 0 {
		r.System = f.sessions[0].Name()
	}
	horizon := f.lastT
	var all []float64
	fleetRow := StreamStats{ID: "fleet"}
	for s := range f.books.acc {
		a := &f.books.acc[s]
		row := a.StreamStats
		row.ID = f.worlds.seq(s).ID
		row.Derive(horizon, a.latencies)
		r.PerStream = append(r.PerStream, row)
		fleetRow.Add(a.StreamStats)
		all = append(all, a.latencies...)
	}
	fleetRow.Derive(horizon, all)
	r.Fleet = fleetRow
	if cfg.Scheduler == sched.Priority {
		r.PerClass = f.perClass(horizon)
	}
	if horizon > 0 {
		r.AvgQueueDepth = f.depthInt / horizon
		if f.resized {
			// Capacity was a step function, not a constant: utilization
			// is the busy integral over the capacity integral (which can
			// transiently exceed 1 when a scale-down preempts capacity
			// under in-flight batches).
			if f.capInt > 0 {
				r.Utilization = f.busyInt / f.capInt
			}
		} else {
			r.Utilization = f.busyInt / (horizon * float64(cfg.Executors))
		}
	}
	return r
}

// perClass aggregates the per-stream counters by priority class,
// highest class first.
func (f *fleet) perClass(horizon float64) []StreamStats {
	var classes []int
	for s := range f.books.acc {
		if c := f.class(s); !slices.Contains(classes, c) {
			classes = append(classes, c)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(classes)))
	out := make([]StreamStats, len(classes))
	for i, c := range classes {
		out[i].ID = fmt.Sprintf("class-%d", c)
		var lats []float64
		for s := range f.books.acc {
			if f.class(s) == c {
				out[i].Add(f.books.acc[s].StreamStats)
				lats = append(lats, f.books.acc[s].latencies...)
			}
		}
		out[i].Derive(horizon, lats)
	}
	return out
}
