package serve

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/gpumodel"
	"repro/internal/ops"
	"repro/internal/serve/control"
	"repro/internal/serve/sched"
	"repro/internal/sim"
	"repro/internal/video"
)

// Event kinds. At equal virtual times completions sort before resizes,
// resizes before control ticks and control ticks before arrivals, so an
// executor freed at t can serve a frame arriving at t, a capacity
// change effective at t governs that frame's dispatch, and a control
// tick at t observes the fleet after completions and resizes but
// before the instant's arrivals — the same before-Submit ordering the
// cluster control plane runs its shard ticks in.
const (
	evCompletion = iota
	evResize
	evControl
	evArrival
)

// event is one entry of the virtual-clock agenda. (t, kind, stream,
// frame, epoch) is a total order: a stream never has two events of the
// same kind for the same frame (a batch completion is keyed by its
// first frame) — except across reset-session reconnects, where frame
// indices restart and the epoch breaks the tie — so heap order, and
// with it the whole simulation, is deterministic. arrive is the
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

type agenda []event

func (a agenda) Len() int { return len(a) }
func (a agenda) Less(i, j int) bool {
	if a[i].t != a[j].t {
		return a[i].t < a[j].t
	}
	if a[i].kind != a[j].kind {
		return a[i].kind < a[j].kind
	}
	if a[i].stream != a[j].stream {
		return a[i].stream < a[j].stream
	}
	if a[i].frame != a[j].frame {
		return a[i].frame < a[j].frame
	}
	if a[i].epoch != a[j].epoch {
		return a[i].epoch < a[j].epoch
	}
	return a[i].execs < a[j].execs
}
func (a agenda) Swap(i, j int) { a[i], a[j] = a[j], a[i] }
func (a *agenda) Push(x any)   { *a = append(*a, x.(event)) }
func (a *agenda) Pop() any     { old := *a; n := len(old); e := old[n-1]; *a = old[:n-1]; return e }
func (a *agenda) add(e event)  { heap.Push(a, e) }
func (a *agenda) next() event  { return heap.Pop(a).(event) }

// admitted is one frame an executor pulled from the scheduler, together
// with the operating mode resolved at its admission (fleet.modeOf) and,
// once the step phase has run, the frame's pricing components: its
// full dispatch price, used by per-frame launches (effective batch
// <= 1), and its workload, which feeds the fused-launch price under
// batching.
type admitted struct {
	job     sched.Job
	mode    control.Mode
	service float64 // effective batch <= 1: this frame's dispatch price
	work    float64 // effective batch > 1: this frame's ops for BatchFrames
}

// degraded reports the frame ran proposal-only (the refinement pass
// was shed), whether by the legacy DegradeDepth threshold or an
// explicit per-stream ModeProposal policy.
func (a *admitted) degraded() bool { return a.mode == control.ModeProposal }

// streamAcc accumulates one stream's ledger row during the run: the
// frame counters of its Result row plus every served latency sample.
type streamAcc struct {
	StreamStats
	latencies []float64
}

// pendingBatch is one in-flight launch, held unrecorded until its
// completion event fires so a failAt between dispatch and completion
// can seize its frames as if the launch never happened. Its n frames
// are the launch's run within fleet.adm, which keeps the in-flight
// frames in dispatch order. (t, stream, frame, epoch) mirrors the
// evCompletion event's identity; batch is the dispatch ordinal the
// served events carry.
type pendingBatch struct {
	t      float64
	stream int
	frame  int
	epoch  int
	batch  int
	n      int
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
	seed    int64
	gpu     gpumodel.Model
	refCost ops.CostModel
	cascade bool

	// Per-stream state. presets[s] is the (possibly rate-rescaled)
	// world preset of stream s; growers[s] incrementally extends its
	// synthetic sequence seqs[s] (frames exist up to the largest index
	// submitted so far). sessEpoch[s] is the capture-session
	// generation sessions[s] currently holds: when a frame from a
	// later epoch (a reset-session reconnect) reaches its step, the
	// session is Reset first — lazily, at step time, so frames queued
	// before the reconnect still step against the session that
	// watched them.
	presets   []video.Preset
	sessions  []core.System
	growers   []*video.Grower
	seqs      []*dataset.Sequence
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

	// workers is Config.StepWorkers: the fan-out width of the step
	// phase. poolWork feeds the persistent step workers one active
	// stream index at a time (started lazily on the first parallel
	// round, released by closePool); poolWG is the round barrier. adm
	// holds every in-flight frame in dispatch order, each launch's
	// frames one contiguous run, and pend the in-flight launches in the
	// same order (at most the executor count, matched linearly); a
	// launch reuses their capacity rather than allocating. The
	// remaining fields are the dispatch round's reused scratch: the
	// per-stream step groups with the list of active streams, and the
	// workload vector for batched pricing.
	workers  int
	poolWork chan int
	poolWG   sync.WaitGroup
	adm      []admitted
	pend     []pendingBatch
	byStream [][]*admitted
	active   []int
	works    []float64

	sink Sink
	win  *window

	// Per-stream sliding windows, always maintained: latWinS[s] rings
	// the stream's most recent served-frame latencies and arrWin[s] its
	// most recent arrival instants, both capped at Config.StatsWindow —
	// the signals Stats.PerStreamWindow exposes and the control plane's
	// View is built from.
	latWinS []*window
	arrWin  []*window

	// Adaptive control plane (nil/inert without an active
	// Config.Control). ctrl is the per-fleet controller instance; mode,
	// effStale and effBatch are the policy state its actions drive —
	// under ModeAuto, the configured MaxStaleness and BatchSize they
	// are initialized to, so a controller-less run's arithmetic is
	// untouched. tickArmed tracks whether an evControl event is on the
	// agenda: ticks self-reschedule while work is pending and go
	// dormant on an idle fleet (so Drain terminates), re-armed by the
	// next arrival at the next fixed Interval multiple.
	ctrl         control.Controller
	mode         []control.Mode
	effStale     []float64
	effBatch     int
	tickArmed    bool
	controlTicks int
	modeSwitches int
	view         control.View // reused tick scratch

	now, lastT        float64
	depthInt, busyInt float64 // time integrals of queue depth / busy executors
	maxDepth          int
	maxService        float64
	acc               []streamAcc
}

// newFleet builds the engine for a normalized, validated config.
func newFleet(cfg Config) (*fleet, error) {
	f := &fleet{
		cfg:     cfg,
		seed:    cfg.Seed,
		gpu:     gpumodel.Default(),
		cascade: cfg.Spec.Kind != sim.Single,
		sink:    cfg.Sink,
		win:     newWindow(cfg.StatsWindow),
		workers: cfg.StepWorkers,
		execs0:  cfg.Executors,
	}
	if cfg.GPU != nil {
		f.gpu = *cfg.GPU
	}
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
		ref, err := detector.New(cfg.Spec.Refinement)
		if err != nil {
			return nil, err
		}
		f.refCost = ref.Cost
	}

	// The base world preset runs at the offered rate: frame k of a
	// stream is the world 1/FPS seconds after frame k-1. A stream whose
	// StreamFPS overrides the rate gets its own preset rescaled to that
	// rate, so its frame content and arrival cadence agree — the same
	// per-second motion, lifetime and density statistics as its
	// same-rate neighbors, sampled at its own cadence.
	base := cfg.Preset
	base.FPS = cfg.FPS
	f.presets = make([]video.Preset, cfg.Streams)
	for s := range f.presets {
		p := base
		if len(cfg.StreamFPS) > 0 && cfg.StreamFPS[s] != cfg.FPS {
			p = base.Rescale(cfg.StreamFPS[s])
		}
		f.presets[s] = p
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
	factory := spec.Factory(base.ClassList())
	f.sessions = make([]core.System, cfg.Streams)
	f.growers = make([]*video.Grower, cfg.Streams)
	f.seqs = make([]*dataset.Sequence, cfg.Streams)
	f.sessEpoch = make([]int, cfg.Streams)
	f.acc = make([]streamAcc, cfg.Streams)
	// Sized for one single-frame launch per executor, so a fleet that
	// never batches or resizes never grows them.
	f.adm = make([]admitted, 0, cfg.Executors)
	f.pend = make([]pendingBatch, 0, cfg.Executors)
	f.queued = make([]int, cfg.Streams)
	f.mode = make([]control.Mode, cfg.Streams)
	f.effStale = make([]float64, cfg.Streams)
	f.effBatch = cfg.BatchSize
	f.latWinS = make([]*window, cfg.Streams)
	f.arrWin = make([]*window, cfg.Streams)
	for s := range f.effStale {
		f.effStale[s] = cfg.MaxStaleness
		f.latWinS[s] = newWindow(cfg.StatsWindow)
		// A rate needs two stamps, so the arrival ring holds at least two.
		f.arrWin[s] = newWindow(max(cfg.StatsWindow, 2))
	}
	if cfg.Control.Active() {
		ctrl, err := control.New(cfg.Control)
		if err != nil {
			return nil, err
		}
		f.ctrl = ctrl
		f.view.Streams = make([]control.StreamSignal, cfg.Streams)
	}
	for s := 0; s < cfg.Streams; s++ {
		sys, err := factory()
		if err != nil {
			return nil, err
		}
		f.growers[s] = video.NewGrower(f.presets[s], f.seed, s)
		f.seqs[s] = f.growers[s].Sequence()
		sys.Reset(f.seqs[s])
		f.sessions[s] = sys
	}
	return f, nil
}

// ensureFrame grows stream s's world so frame exists. The grower
// extends the sequence in place, emitting only the missing frames —
// frames already served are never touched (generation is
// prefix-stable), total work over a Server's lifetime is linear in the
// largest frame index actually submitted (the former
// regenerate-at-doubled-length scheme redid the whole prefix on every
// growth, O(n²) total), and memory stays proportional to that index.
func (f *fleet) ensureFrame(s, frame int) {
	f.growers[s].Grow(frame + 1)
}

// advanceTo processes every agenda event up to and including virtual
// time t, in (t, kind, stream, frame) order.
func (f *fleet) advanceTo(t float64) {
	for f.agenda.Len() > 0 && f.agenda[0].t <= t {
		f.handle(f.agenda.next())
	}
}

// handle plays one event: advance the clock, apply the event, then let
// idle executors pull work.
func (f *fleet) handle(e event) {
	f.tick(e.t)
	switch e.kind {
	case evArrival:
		f.acc[e.stream].Arrived++
		f.arrWin[e.stream].add(e.t)
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

// emit hands an event to the sink, if any. Sinks run synchronously on
// the engine (under the Server's lock): they must be fast and must not
// call back into the Server.
func (f *fleet) emit(e Event) {
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
	f.view.Busy = f.busy
	f.view.Executors = f.cfg.Executors
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
		sig.ArrivalRate = f.arrWin[s].rate()
		lat := f.latWinS[s].summary()
		sig.P50, sig.P99 = lat.P50, lat.P99
		a := &f.acc[s]
		sig.Served = a.Served
		sig.DroppedQueue = a.DroppedQueue
		sig.DroppedStale = a.DroppedStale
	}
	return f.view
}

// apply commits one controller action, clamping defensively: out-of-
// range streams are ignored, batch requests clamp to [1, MaxBatch].
// Mode switches are counted and sunk (EventModeSwitch) at the decision
// instant.
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
		f.modeSwitches++
		f.emit(Event{Kind: EventModeSwitch, Stream: a.Stream, Time: now, Mode: string(m)})
	}
	if s := a.Policy.DeadlineScale; s > 0 && f.cfg.MaxStaleness > 0 {
		f.effStale[a.Stream] = f.cfg.MaxStaleness * s
	}
}

// admit offers an arriving frame to the scheduler and charges the
// victim, if the policy evicted one to stay under the cap.
func (f *fleet) admit(j sched.Job) {
	f.queued[j.Stream]++
	if victim, dropped := f.sched.Admit(j); dropped {
		f.queued[victim.Stream]--
		f.acc[victim.Stream].DroppedQueue++
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
// runs out, in three phases. Phase 1 (serial): gather every batch the
// round's idle executors can take — up to BatchSize frames each, with
// the stale-skip and degrade policies applied per frame as it pops —
// exactly as the serial engine would, since gathering touches only the
// scheduler and the clock, never the step results. Phase 2 (parallel):
// step every admitted frame's session, fanned out per stream across
// StepWorkers goroutines (see stepRound for why this cannot change the
// output). Phase 3 (serial): price every batch and schedule its
// completion in gather order, which is the exact event order the
// serial engine produced. A launch reaches the books only when its
// completion event fires (settle); until then its frames wait in adm
// and the launch in pend.
func (f *fleet) dispatch() {
	round, launches := len(f.adm), len(f.pend)
	for f.busy < f.cfg.Executors && f.sched.Len() > 0 {
		start := len(f.adm)
		f.gather()
		if len(f.adm) == start {
			continue // every candidate was stale; re-check the queue
		}
		f.busy++
		f.pend = append(f.pend, pendingBatch{n: len(f.adm) - start})
	}
	if len(f.pend) == launches {
		return
	}
	f.stepRound(f.adm[round:])
	for i := launches; i < len(f.pend); i++ {
		p := &f.pend[i]
		batch := f.adm[round : round+p.n]
		round += p.n
		service := f.priceBatch(batch)
		if service > f.maxService {
			f.maxService = service
		}
		f.batches++
		head := batch[0].job
		p.t, p.stream, p.frame, p.epoch, p.batch = f.now+service, head.Stream, head.Frame, head.Epoch, f.batches
		f.agenda.add(event{t: p.t, kind: evCompletion, stream: head.Stream, frame: head.Frame, epoch: head.Epoch})
	}
}

// account records a launch's frames as served at its completion instant
// done: per-stream counters, latency samples, sliding windows and the
// EventServed emissions. settle calls it when the completion event
// fires, so the books, the controller's latency windows and the sink
// see a frame only once it has actually finished.
func (f *fleet) account(batch []admitted, done float64, batchNo int) {
	for i := range batch {
		adm := &batch[i]
		a := &f.acc[adm.job.Stream]
		a.Served++
		if adm.degraded() {
			a.Degraded++
		}
		if adm.mode == control.ModeFull {
			a.ModeFull++
		}
		lat := done - adm.job.Arrive
		a.latencies = append(a.latencies, lat)
		f.win.add(lat)
		f.latWinS[adm.job.Stream].add(lat)
		ev := Event{
			Kind: EventServed, Stream: adm.job.Stream, Frame: adm.job.Frame,
			Arrive: adm.job.Arrive, Time: done,
			Latency: lat, Degraded: adm.degraded(), Batch: batchNo,
			Epoch: adm.job.Epoch,
		}
		if f.ctrl != nil {
			// Mode attribution only matters — and only changes trace
			// bytes — on controlled runs.
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
// the dispatch order failAt seizes in.
func (f *fleet) settle(e event) {
	off := 0
	for i := range f.pend {
		p := &f.pend[i]
		if p.t == e.t && p.stream == e.stream && p.frame == e.frame && p.epoch == e.epoch {
			f.account(f.adm[off:off+p.n], p.t, p.batch)
			f.adm = append(f.adm[:off], f.adm[off+p.n:]...)
			f.pend = append(f.pend[:i], f.pend[i+1:]...)
			return
		}
		off += p.n
	}
}

// failAt kills the fleet's hardware at virtual time t: pending launches
// are cancelled (their frames were never recorded — the launch simply
// never happened), queued frames are popped, the agenda is cleared
// (completions, provisioning resizes and the armed control tick die
// with the machine) and the executor count drops to zero until a later
// ResizeAt revives it. The seized frames come back in
// dispatch-then-queue order — which preserves per-stream frame order,
// so a caller replaying them elsewhere keeps every stream's timeline
// monotone — each counted in StreamStats.FailedOver and emitted as an
// EventFailedOver at the failure instant.
func (f *fleet) failAt(t float64) []FailedFrame {
	f.tick(t)
	var seized []FailedFrame
	grab := func(j sched.Job) {
		f.acc[j.Stream].FailedOver++
		f.emit(Event{
			Kind: EventFailedOver, Stream: j.Stream, Frame: j.Frame,
			Arrive: j.Arrive, Time: t, Epoch: j.Epoch,
		})
		seized = append(seized, FailedFrame{Stream: j.Stream, Frame: j.Frame, Arrive: j.Arrive, Epoch: j.Epoch})
	}
	for i := range f.adm {
		grab(f.adm[i].job)
	}
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
			f.acc[j.Stream].DroppedStale++
			f.emit(Event{
				Kind: EventDroppedStale, Stream: j.Stream, Frame: j.Frame,
				Arrive: j.Arrive, Time: f.now, Epoch: j.Epoch,
			})
			continue
		}
		mode, _ := f.modeOf(j.Stream)
		f.adm = append(f.adm, admitted{job: j, mode: mode})
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

// stepRound runs the round's real CPU work — stepping each admitted
// frame's detection session and pricing the frame — across StepWorkers
// goroutines. Determinism survives the fan-out because the work
// decomposes per stream: each stream's session is private (its own
// detectors, tracker and scratch), frames of one stream are stepped
// sequentially in gather order (every scheduler preserves per-stream
// arrival order), the frame prices depend only on the step output and
// read-only shared state (gpu model, world dimensions), and phase 3
// consumes the results in gather order regardless of which worker
// produced them when. Workers share nothing mutable, so the fan-out is
// also race-free by construction.
func (f *fleet) stepRound(round []admitted) {
	if f.workers <= 1 || len(round) == 1 {
		for i := range round {
			f.stepAdmitted(&round[i])
		}
		return
	}
	if f.byStream == nil {
		f.byStream = make([][]*admitted, f.cfg.Streams)
	}
	f.active = f.active[:0]
	for i := range round {
		s := round[i].job.Stream
		if len(f.byStream[s]) == 0 {
			f.active = append(f.active, s)
		}
		f.byStream[s] = append(f.byStream[s], &round[i])
	}
	if len(f.active) <= 1 {
		for i := range round {
			f.stepAdmitted(&round[i])
		}
	} else {
		if f.poolWork == nil {
			f.startPool()
		}
		f.poolWG.Add(len(f.active))
		for _, s := range f.active {
			f.poolWork <- s
		}
		f.poolWG.Wait()
	}
	for _, s := range f.active {
		f.byStream[s] = f.byStream[s][:0]
	}
}

// startPool launches the persistent step workers, lazily on the first
// round that has cross-stream work. Rounds are frequent (one per
// agenda event that frees an executor), so the pool amortizes the
// goroutine spawn across the fleet's lifetime: a round costs one
// channel send per active stream plus the WaitGroup barrier. The send
// happens-before the worker's read of byStream, and poolWG.Wait
// happens-after every stepAdmitted write, so phase 3 reads the step
// results race-free. Idle workers block on the channel; closePool
// releases them.
func (f *fleet) startPool() {
	f.poolWork = make(chan int)
	// Workers range over a captured copy of the channel: reading the
	// field would race with closePool nilling it, since nothing orders
	// a worker's startup read against a later Close.
	work := f.poolWork
	for w := 0; w < f.workers; w++ {
		go func() {
			for s := range work {
				for _, adm := range f.byStream[s] {
					f.stepAdmitted(adm)
				}
				f.poolWG.Done()
			}
		}()
	}
}

// closePool releases the step workers. Idempotent; called by
// Server.Close. A fleet that never went parallel has no pool.
func (f *fleet) closePool() {
	if f.poolWork != nil {
		close(f.poolWork)
		f.poolWork = nil
	}
}

// step advances the frame's stream session. Sessions are stepped in
// per-stream arrival order (every scheduler preserves it), which keeps
// the tracker causal; dropped frames are simply never seen, so the
// tracker coasts across them.
func (f *fleet) step(j sched.Job) core.FrameOutput {
	return f.sessions[j.Stream].Step(detector.FrameOf(f.seqs[j.Stream], j.Frame))
}

// stepAdmitted advances the frame's session and computes its pricing
// components in place: the full launch-by-launch dispatch price
// (service, used under effective batch 1) and the frame's total
// operations for the fused BatchFrames launch (work, used under
// batching) — both read off one gpumodel.FrameTime. Pricing
// happens here, at step time, because FrameOutput.Regions aliases the
// session's scratch and is only valid until that session's next Step —
// and because the price is a pure function of the step output and
// read-only state, computing it on the worker is deterministic and
// parallelizes the region-merge arithmetic for free.
//
// Degraded frames are a timing-model shed only: the session still
// steps in full (the tracker keeps its refinement-fed state) and just
// the price switches to the proposal-only launch — see
// Config.DegradeDepth for what that does and does not model.
func (f *fleet) stepAdmitted(adm *admitted) {
	if s := adm.job.Stream; adm.job.Epoch != f.sessEpoch[s] {
		// The stream reconnected under reset-session between this
		// frame's epoch and the session's: start the new capture
		// session here, in per-stream step order, so every frame steps
		// against the session generation that watched it. Safe under
		// the parallel fan-out — a stream's frames step on one worker.
		f.sessions[s].Reset(f.seqs[s])
		f.sessEpoch[s] = adm.job.Epoch
	}
	out := f.step(adm.job)
	seq := f.seqs[adm.job.Stream]
	// base is the proposal pass a refining cascade frame runs besides
	// the refinement workload its FrameTime reports; a single-model or
	// degraded frame's MergedWorkload already is its whole launch.
	var ft gpumodel.FrameTime
	base := 0.0
	switch {
	case !f.cascade:
		ft = f.gpu.SingleModelFrame(out.Ops.Refinement)
	case adm.degraded():
		ft = f.gpu.ProposalOnlyFrame(out.Ops.Proposal)
	case adm.mode == control.ModeFull:
		ft = f.gpu.FullCascadeFrame(out.Ops.Proposal,
			f.refCost.RegionOps(seq.Width, seq.Height, 1, out.NumProposals))
		base = out.Ops.Proposal
	default:
		ft = f.gpu.CaTDetFrame(out.Ops.Proposal, out.Regions,
			float64(seq.Width), float64(seq.Height), f.refCost, out.NumProposals)
		base = out.Ops.Proposal
	}
	adm.service = ft.Total
	adm.work = base + ft.MergedWorkload
}

// priceBatch folds the batch's precomputed step results into the
// dispatch's service time. A single-frame dispatch under effective
// batch 1 keeps the per-frame, launch-by-launch pricing of PR 2;
// larger batches fuse into one launch via gpumodel.Model.BatchFrames.
// The effective batch size only moves at control ticks, which are
// agenda events — never mid-dispatch — so gather, step and pricing
// always agree on the form.
func (f *fleet) priceBatch(batch []admitted) float64 {
	if f.effBatch <= 1 {
		return batch[0].service
	}
	f.works = f.works[:0]
	for i := range batch {
		f.works = append(f.works, batch[i].work)
	}
	cpu := f.gpu.CPUOverheadCaTDet
	if !f.cascade {
		cpu = f.gpu.CPUOverheadSingle
	}
	return f.gpu.BatchFrames(f.works, cpu).Total
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

// dropPoison charges a poison pill to its stream and sinks it. Pills
// deliberately leave the virtual clock, the causality state and the
// session untouched, so a run's books with and without a pill are
// identical — the isolation the PoisonDrop policy promises. A
// non-finite arrival stamp is re-stamped to the current clock for the
// sink (NaN would break JSON trace encoders downstream).
func (f *fleet) dropPoison(stream, frame int, arrive float64, epoch int) {
	f.acc[stream].DroppedPoison++
	if math.IsNaN(arrive) || math.IsInf(arrive, 0) {
		arrive = f.now
	}
	f.emit(Event{
		Kind: EventDroppedPoison, Stream: stream, Frame: frame,
		Arrive: arrive, Time: f.now, Epoch: epoch,
	})
}

// noteReconnect charges an accepted camera reconnect to its stream and
// sinks it at the decision instant (the current clock — the
// reconnecting frame's own arrival, possibly later, follows it).
func (f *fleet) noteReconnect(stream, eff int, arrive float64, epoch int) {
	f.acc[stream].Reconnects++
	f.emit(Event{
		Kind: EventReconnect, Stream: stream, Frame: eff,
		Arrive: arrive, Time: f.now, Epoch: epoch,
	})
}

// stats folds the live counters into a snapshot. Totals count since
// New; the latency summary covers the sliding window of the most
// recent StatsWindow served frames.
func (f *fleet) stats() Stats {
	st := Stats{
		Now:            f.lastT,
		QueueDepth:     f.sched.Len(),
		BusyExecutors:  f.busy,
		Executors:      f.cfg.Executors,
		PerStreamQueue: append([]int(nil), f.queued...),
		Window:         f.win.summary(),
	}
	st.PerStreamWindow = make([]StreamWindow, len(f.acc))
	for s := range st.PerStreamWindow {
		w := &st.PerStreamWindow[s]
		w.Queue = f.queued[s]
		w.ArrivalRate = f.arrWin[s].rate()
		w.Window = f.latWinS[s].summary()
		_, mode := f.modeOf(s)
		w.Mode = string(mode)
	}
	var tot StreamStats
	for s := range f.acc {
		tot.Add(f.acc[s].StreamStats)
	}
	tot.Derive(st.Now, nil)
	st.Arrived, st.Served = tot.Arrived, tot.Served
	st.DroppedQueue, st.DroppedStale = tot.DroppedQueue, tot.DroppedStale
	st.DroppedPoison, st.Reconnects = tot.DroppedPoison, tot.Reconnects
	st.FailedOver, st.Degraded = tot.FailedOver, tot.Degraded
	st.Throughput, st.DropRate = tot.Throughput, tot.DropRate
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
		r.ModeSwitches = f.modeSwitches
	}
	if len(f.sessions) > 0 {
		r.System = f.sessions[0].Name()
	}
	horizon := f.lastT
	var all []float64
	fleetRow := StreamStats{ID: "fleet"}
	for s := range f.acc {
		a := &f.acc[s]
		row := a.StreamStats
		row.ID = f.seqs[s].ID
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
	for s := range f.acc {
		if c := f.class(s); !slices.Contains(classes, c) {
			classes = append(classes, c)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(classes)))
	out := make([]StreamStats, len(classes))
	for i, c := range classes {
		out[i].ID = fmt.Sprintf("class-%d", c)
		var lats []float64
		for s := range f.acc {
			if f.class(s) == c {
				out[i].Add(f.acc[s].StreamStats)
				lats = append(lats, f.acc[s].latencies...)
			}
		}
		out[i].Derive(horizon, lats)
	}
	return out
}
