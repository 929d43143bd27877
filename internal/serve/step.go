package serve

import (
	"slices"
	"sync"

	"repro/internal/gpumodel"
	"repro/internal/serve/control"
)

// stepPool runs the detection steps of dispatched frames off the event
// loop. Dispatch queues one task per admitted frame; the engine needs a
// task's result only when its launch's evPriced marker fires, the
// launch's lookahead (launchBound) of virtual time later, and in the
// meantime StepWorkers-1 background goroutines and the engine itself
// step the queue.
//
// Determinism rests on two rules. A task is taken only when no earlier
// task of its stream is running — the queue is in dispatch order, so
// every session steps its frames in per-stream arrival order, exactly
// as the serial engine would. And a step result is read only after the
// engine has seen its task finish under mu, so where and when a frame
// was stepped cannot show in the books.
//
// The pool's state is guarded by mu. A task's admitted record is
// written by whichever goroutine steps it, then handed back to the
// engine by the stepped flag.
type stepPool struct {
	mu sync.Mutex
	// work parks idle background workers until a task is queued or the
	// pool closes; done parks the engine while no queued task is
	// runnable and the step it needs is running on a worker.
	work, done sync.Cond
	// queue holds the tasks not yet taken, in dispatch order;
	// running[s] marks a step of stream s in progress; outstanding
	// counts queued plus running tasks, which launch caps at limit
	// (2×StepWorkers) times the frames of the launch it queues.
	queue       []*admitted
	running     []bool
	outstanding int
	limit       int
	idle        int  // background workers parked on work
	waiting     bool // the engine is parked on done
	closed      bool
	started     bool
	wg          sync.WaitGroup // background workers still running
}

// initPool prepares the step pool for a fleet of the given streams and
// StepWorkers. The background workers start with the first launch.
func (f *fleet) initPool(streams, workers int) {
	p := &f.pool
	p.work.L, p.done.L = &p.mu, &p.mu
	p.running = make([]bool, streams)
	p.limit = 2 * workers
}

// launchBound is the lookahead of the pipelined step: a lower bound on
// every price the fleet can produce for a launch of n frames, so a
// launch dispatched at t completes no earlier than t+minService(n). A
// launch pays the launch overhead b at least once (LaunchTime(w) =
// Alpha·w + b with w ≥ 0) and the per-frame CPU overhead once per
// frame: a per-frame launch (n = 1) costs LaunchTime(·) + cpu or more,
// and a fused one BatchFrames(works, cpu).Total = LaunchTime(ΣW) +
// cpu·n. Floating-point addition and multiplication are monotone, so
// with Alpha, LaunchOverhead and the CPU overhead finite and
// non-negative — which Config.Validate requires of every model — every
// n-frame price is ≥ b + cpu·n, and adding the same dispatch instant
// to both keeps the order. The bound is 0 only when both overheads are.
type launchBound struct{ overhead, cpu float64 }

// newLaunchBound returns the lookahead of a fleet pricing on m.
func newLaunchBound(m gpumodel.Model, cascade bool) launchBound {
	return launchBound{overhead: m.LaunchOverhead, cpu: frameCPU(m, cascade)}
}

// minService is the lookahead of an n-frame launch, b + cpu·n. For a
// single-frame launch it is b + cpu bit for bit.
func (l launchBound) minService(n int) float64 {
	return l.overhead + l.cpu*float64(n)
}

// frameCPU is the per-frame CPU overhead of the system a fleet serves.
func frameCPU(m gpumodel.Model, cascade bool) float64 {
	if cascade {
		return m.CPUOverheadCaTDet
	}
	return m.CPUOverheadSingle
}

// launch queues the steps of a new launch's frames and wakes idle
// workers for them. The cap on outstanding tasks scales with the
// launch, as its lookahead does: past 2×StepWorkers tasks per frame of
// the launch the engine works the queue off itself, which bounds both
// the memory held by unpriced launches and how far the workers can
// fall behind the event loop, while a fused launch — whose marker is
// that many CPU overheads away — goes to the workers whole.
func (f *fleet) launch(batch []*admitted) {
	p := &f.pool
	if f.workers > 1 && !p.started {
		f.startPool()
	}
	p.mu.Lock()
	p.queue = append(p.queue, batch...)
	p.outstanding += len(batch)
	for i := min(p.idle, len(batch)); i > 0; i-- {
		p.work.Signal()
	}
	for p.outstanding > p.limit*len(batch) {
		f.help()
	}
	p.mu.Unlock()
}

// join returns once every frame of batch has been stepped. While it
// waits the engine steps whatever task is runnable — usually one of
// batch's own — and parks on done only when none is.
func (f *fleet) join(batch []*admitted) {
	p := &f.pool
	p.mu.Lock()
	for _, a := range batch {
		for !a.stepped {
			f.help()
		}
	}
	p.mu.Unlock()
}

// help makes one unit of progress on the engine, with p.mu held: it
// steps the first runnable task, or, when no queued task is runnable,
// parks until a worker finishes one. The engine itself steps nothing
// while it parks, so some outstanding task is then running on a
// background worker, and the park always ends.
func (f *fleet) help() {
	p := &f.pool
	if a := p.take(); a != nil {
		p.mu.Unlock()
		f.stepAdmitted(a)
		p.mu.Lock()
		p.finish(a)
		return
	}
	p.waiting = true
	p.done.Wait()
	p.waiting = false
}

// take removes and returns the first queued task whose stream has no
// step running, marking the stream running; nil when there is none.
// The first queued task of a stream is its earliest unstepped frame, so
// taking it keeps per-stream order.
func (p *stepPool) take() *admitted {
	for i, a := range p.queue {
		if s := a.job.Stream; !p.running[s] {
			p.running[s] = true
			p.queue = slices.Delete(p.queue, i, i+1)
			return a
		}
	}
	return nil
}

// finish records a stepped task and wakes the engine if it waits.
func (p *stepPool) finish(a *admitted) {
	a.stepped = true
	p.running[a.job.Stream] = false
	p.outstanding--
	if p.waiting {
		p.done.Signal()
	}
}

// startPool launches the StepWorkers-1 background step workers; the
// engine is the last worker. They live until closePool.
func (f *fleet) startPool() {
	p := &f.pool
	p.started = true
	for w := 1; w < f.workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.mu.Lock()
			defer p.mu.Unlock()
			for !p.closed {
				a := p.take()
				if a == nil {
					p.idle++
					p.work.Wait()
					p.idle--
					continue
				}
				p.mu.Unlock()
				f.stepAdmitted(a)
				p.mu.Lock()
				p.finish(a)
			}
		}()
	}
}

// closePool stops the background workers and returns once they have
// exited: a worker in the middle of a step finishes it first, queued
// tasks are abandoned. Idempotent; called by Server.Close.
func (f *fleet) closePool() {
	p := &f.pool
	p.mu.Lock()
	p.closed = true
	p.work.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// stepAdmitted advances the frame's stream session and computes its
// pricing components in place: the full launch-by-launch dispatch price
// (service, used under effective batch 1) and the frame's total
// operations for the fused BatchFrames launch (work, used under
// batching) — both read off one gpumodel.FrameTime. Pricing happens
// here, at step time, because FrameOutput.Regions aliases the session's
// scratch and is only valid until that session's next Step — and
// because the price is a pure function of the step output and read-only
// state, computing it on a worker is deterministic.
//
// The stream's world grows here too, on the goroutine that steps the
// frame, under the world's own lock: the worlds may be shared by every
// shard of a cluster, whose steps of one stream can overlap after a
// migration or failover. A world depends only on (preset, seed,
// stream) and the grower is prefix-stable, so whichever Server grows a
// frame first, every Server reads the frame a from-scratch generation
// would emit.
//
// Degraded frames are a timing-model shed only: the session still
// steps in full (the tracker keeps its refinement-fed state) and just
// the price switches to the proposal-only launch — see
// Config.DegradeDepth for what that does and does not model.
func (f *fleet) stepAdmitted(adm *admitted) {
	s := adm.job.Stream
	if adm.job.Epoch != f.sessEpoch[s] {
		// The stream reconnected under reset-session between this
		// frame's epoch and the session's: start the new capture
		// session here, in per-stream step order, so every frame steps
		// against the session generation that watched it.
		f.sessions[s].Reset(f.worlds.seq(s))
		f.sessEpoch[s] = adm.job.Epoch
	}
	fr := f.worlds.frame(s, adm.job.Frame)
	out := f.sessions[s].Step(fr)
	// base is the proposal pass a refining cascade frame runs besides
	// the refinement workload its FrameTime reports; a single-model or
	// degraded frame's MergedWorkload already is its whole launch.
	var ft gpumodel.FrameTime
	base := 0.0
	switch {
	case !f.cascade:
		ft = f.gpu.SingleModelFrame(out.Ops.Refinement)
	case adm.mode == control.ModeProposal:
		ft = f.gpu.ProposalOnlyFrame(out.Ops.Proposal)
	case adm.mode == control.ModeFull:
		ft = f.gpu.FullCascadeFrame(out.Ops.Proposal,
			f.refCost.RegionOps(fr.Width, fr.Height, 1, out.NumProposals))
		base = out.Ops.Proposal
	default:
		ft = f.gpu.CaTDetFrame(out.Ops.Proposal, out.Regions,
			float64(fr.Width), float64(fr.Height), f.refCost, out.NumProposals)
		base = out.Ops.Proposal
	}
	adm.service = ft.Total
	adm.work = base + ft.MergedWorkload
}
