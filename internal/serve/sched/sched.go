// Package sched holds the pluggable frame schedulers of the serving
// layer. A Scheduler owns the set of frames waiting for an executor:
// it decides where an arriving frame queues (Admit), which waiting
// frame is sacrificed when the queue is over capacity (the returned
// victim — drop accounting is policy-owned, not the caller's), and
// which frame an idle executor serves next (Next).
//
// Every implementation is deterministic: state depends only on the
// sequence of Admit/Next calls, never on map iteration order, wall
// clock or goroutine scheduling, so the serving simulator stays
// byte-identical across reruns at any executor count.
//
// All policies preserve per-stream FIFO order — a stream's frames are
// served in arrival order (dropped frames are simply never seen) — so
// the per-stream tracker sessions stay causal under every policy.
package sched

import "fmt"

// Kind names a scheduling policy.
type Kind string

// The four policies.
const (
	// FIFO is one shared queue in global arrival order: the PR 2
	// behavior, extracted verbatim (and backed by a ring buffer).
	FIFO Kind = "fifo"
	// Fair is deficit round-robin across streams with a unit quantum:
	// idle executors cycle over the streams' private queues, so a
	// bursty stream cannot starve the rest; overflow evicts from the
	// longest per-stream queue.
	Fair Kind = "fair"
	// Priority serves strictly by per-stream priority class (higher
	// first, FIFO within a class); overflow evicts from the lowest
	// class first.
	Priority Kind = "priority"
	// EDF is earliest-deadline-first with deadline = arrive +
	// MaxStaleness; overflow evicts the earliest deadline — the frame
	// nearest expiry is the cheapest to sacrifice under overload.
	EDF Kind = "edf"
)

// Job is one frame waiting for (or offered to) an executor.
type Job struct {
	// Stream and Frame identify the frame; Arrive is its arrival
	// instant on the virtual clock.
	Stream, Frame int
	Arrive        float64
	// Deadline is Arrive + the scenario's MaxStaleness (Arrive itself
	// when staleness is off). Only EDF orders by it.
	Deadline float64
	// Class is the stream's priority class (higher serves first).
	// Only Priority looks at it.
	Class int
	// Epoch is the stream's capture-session generation: 0 until the
	// stream reconnects under the reset-session policy, then +1 per
	// reset. No policy orders by it — it rides along so the engine can
	// reset the stream's detection session at the right point of the
	// per-stream FIFO order.
	Epoch int
}

// Config carries the queue shape every policy needs.
type Config struct {
	// Cap bounds the number of waiting jobs; negative means
	// unbounded. (Zero is a valid, fully lossy cap.)
	Cap int
	// DropNewest selects tail drop where the policy honors a
	// direction: the arriving (or newest) job is the victim instead
	// of the oldest. EDF ignores it — its victim is deadline-chosen.
	DropNewest bool
	// Streams is the number of streams (Fair sizes its per-stream
	// queues from it).
	Streams int
}

// Scheduler owns the waiting frames of one serving scenario.
type Scheduler interface {
	// Admit offers an arriving job. When admitting would leave the
	// scheduler over capacity the policy evicts one job — possibly
	// the offered one — and returns it with dropped=true; the caller
	// charges the victim's stream with a queue drop.
	Admit(j Job) (victim Job, dropped bool)
	// Next pops the job an idle executor should serve; ok=false when
	// nothing waits.
	Next() (j Job, ok bool)
	// Len is the number of waiting jobs.
	Len() int
}

// New builds the scheduler for a policy kind.
func New(kind Kind, cfg Config) (Scheduler, error) {
	switch kind {
	case FIFO:
		return newFIFO(cfg), nil
	case Fair:
		return newFair(cfg), nil
	case Priority:
		return newPriority(cfg), nil
	case EDF:
		return newEDF(cfg), nil
	default:
		return nil, fmt.Errorf("sched: unknown scheduler %q", kind)
	}
}

// over reports whether n waiting jobs exceed the cap.
func (c Config) over(n int) bool { return c.Cap >= 0 && n > c.Cap }
