package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/gpumodel"
	"repro/internal/serve"
)

// ErrClosed is returned by Submit and Drain after Close.
var ErrClosed = errors.New("serve/cluster: router closed")

// EventKind classifies a cluster event.
type EventKind string

// The cluster event kinds.
const (
	// EventServe wraps one shard's per-frame serve.Event.
	EventServe EventKind = "serve"
	// EventMigrate fires when the Router moves a stream between shards;
	// From/To are the shards, Epoch the stream's new cluster epoch.
	EventMigrate EventKind = "migrate"
	// EventResize fires when the autoscaler (or the drain park-guard)
	// requests a shard capacity change; Executors is the new target and
	// Time the virtual instant it becomes effective (decision time plus
	// the tier's ScaleUpLatency for growth).
	EventResize EventKind = "resize"
	// EventKill fires when the FaultPlan takes a shard down; Shard is
	// the victim and Time the failure tick. Seized-frame outcomes
	// follow as the shard's EventFailedOver serve events.
	EventKill EventKind = "kill"
	// EventRevive fires when a killed shard comes back; Executors is
	// the restored capacity and Time the instant it serves again
	// (revival tick plus the tier's ScaleUpLatency).
	EventRevive EventKind = "revive"
	// EventAddShard fires when the FaultPlan grows the cluster; Shard
	// is the new shard's index and Tier its GPU tier.
	EventAddShard EventKind = "add-shard"
	// EventRebalance fires when failover re-placement or the bulk
	// rebalancer moves a stream between shards outside the migration
	// policy; fields as EventMigrate.
	EventRebalance EventKind = "rebalance"
)

// Event is one cluster-level occurrence, reported to Config.Sink.
type Event struct {
	Kind  EventKind `json:"kind"`
	Shard int       `json:"shard"`
	// Serve carries the wrapped per-frame event for EventServe.
	Serve *serve.Event `json:"serve,omitempty"`
	// Stream, From, To and Epoch describe an EventMigrate.
	Stream int `json:"stream,omitempty"`
	From   int `json:"from,omitempty"`
	To     int `json:"to,omitempty"`
	Epoch  int `json:"epoch,omitempty"`
	// Executors is an EventResize's (or EventRevive's) new target count.
	Executors int `json:"executors,omitempty"`
	// Tier names an EventAddShard's GPU tier.
	Tier string `json:"tier,omitempty"`
	// Time is when the event takes effect on the virtual clock.
	Time float64 `json:"time_s"`
}

// Sink receives cluster events. Implementations run synchronously on
// the engine: they must be fast and must not call back into the Router.
type Sink interface {
	ClusterEvent(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// ClusterEvent implements Sink.
func (fn SinkFunc) ClusterEvent(e Event) { fn(e) }

// Router partitions one serving scenario's streams across shard
// Servers and runs the cluster control plane: consistent-hash placement
// with a load cap, bounded stream migration off saturated shards, and
// optional per-shard autoscaling priced by GPU tier. Methods are safe
// for concurrent use; like serve.Server, byte-level determinism is
// guaranteed for time-ordered submission (Run's schedule replay).
type Router struct {
	mu     sync.Mutex
	cfg    Config // normalized
	shards []*shard
	// worlds is every stream's synthetic video, built once from Base
	// and shared by every shard, those added online included.
	worlds *serve.Worlds

	// Stream routing state: hash home, current owner, cluster epoch
	// (bumped per migration) and migration count per stream.
	home, owner []int
	epoch       []int
	migCount    []int

	// Control-plane state. tickStats is the per-shard Stats scratch
	// each control tick refills.
	nextTick   float64 // next control tick on the virtual clock
	migrations int
	resizes    int
	tickStats  []serve.Stats

	// Failure-injection state. The schedule is pre-generated at New
	// (explicit faults merged with the seeded stochastic process) and
	// executed in order on the control-tick grid; the per-stream slices
	// below stay all-zero without an active FaultPlan, so the
	// fault-free paths never branch on them.
	ring       *ring   // current live consistent-hash ring
	ringEpoch  int     // bumped per online ring resize
	faults     []Fault // merged schedule, (Time, declaration) order
	nextFault  int     // first unexecuted schedule entry
	replayed   []int   // per stream: seized frames re-submitted
	dropFail   []int   // per stream: seized frames dropped
	pinOwner   []int   // per stream: dead shard holding its degrade pin, -1 if none
	orphans    []orphanFrame
	kills      int
	revivals   int
	added      int
	replaced   int // failover re-placements through the live ring
	rebalanced int // bulk-rebalancer moves

	// A sliding window over the latest served latencies across every
	// shard, in cluster serve order, for Stats. The merged Result reads
	// each stream's full sample set from the shards' own books.
	window []float64
	wn     int

	closed bool
}

// shard is one shard Server with its tier and its control-plane and
// failure ledger. Shards without an active FaultPlan stay alive with
// a zero ledger.
type shard struct {
	srv  *serve.Server
	tier gpumodel.Tier

	lastMig   float64 // last migration off this shard
	pending   float64 // time until which a resize is in flight
	idleTicks int     // consecutive fully-idle control ticks

	alive      bool
	bornAt     float64   // when it joined the cluster
	downSince  float64   // kill time while dead
	lastKill   float64   // most recent kill time
	downtime   float64   // accumulated dead seconds
	killCount  int       // kills taken
	awaitServe bool      // awaiting first post-revival serve
	recoveries []float64 // kill -> first-served latencies
}

// orphanFrame is a frame the Router could not place on any live shard:
// either submitted while its stream's owner was dead with no live
// fallback, or seized by a kill that left no survivor. Orphans replay
// on the next membership gain (or Drain's last-resort revival). seized
// marks frames already counted Arrived on the dead shard, whose replay
// must be subtracted from the merged books.
type orphanFrame struct {
	stream, frame int
	at            float64
	seized        bool
}

// shardSink forwards one shard's per-frame events into the Router's
// Stats window, the shard's recovery ledger and the user sink. It runs
// under the shard server's lock, which the Router only takes while
// already holding its own lock, so the unguarded field access is safe.
type shardSink struct {
	r   *Router
	sh  *shard
	idx int
}

func (s shardSink) ServeEvent(e serve.Event) {
	r, sh := s.r, s.sh
	if e.Kind == serve.EventServed {
		if sh.awaitServe {
			// Recovery latency: kill instant to the first frame the
			// revived shard completes.
			sh.awaitServe = false
			sh.recoveries = append(sh.recoveries, e.Time-sh.lastKill)
		}
		if len(r.window) < cap(r.window) {
			r.window = append(r.window, e.Latency)
		} else {
			r.window[r.wn%cap(r.window)] = e.Latency
		}
		r.wn++
	}
	if r.cfg.Sink != nil {
		ev := e
		r.cfg.Sink.ClusterEvent(Event{Kind: EventServe, Shard: s.idx, Serve: &ev, Time: e.Time})
	}
}

// New builds a Router: the ring, the initial placement, one set of
// stream worlds and one shard Server per shard, each over the full
// normalized Base and sharing those worlds (only the routing decides
// which shard serves a stream). Elastic shards are parked at
// Autoscale.Min from t=0.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	worlds, err := serve.NewWorlds(cfg.Base)
	if err != nil {
		return nil, err
	}
	rg := newRing(cfg.Shards, virtualNodes)
	home, owner := place(rg, cfg.Base.Streams, placementLoadFactor)
	r := &Router{
		cfg:      cfg,
		worlds:   worlds,
		home:     home,
		owner:    owner,
		epoch:    make([]int, cfg.Base.Streams),
		migCount: make([]int, cfg.Base.Streams),
		ring:     rg,
		faults:   buildFaultSchedule(cfg),
		replayed: make([]int, cfg.Base.Streams),
		dropFail: make([]int, cfg.Base.Streams),
		pinOwner: make([]int, cfg.Base.Streams),
		window:   make([]float64, 0, cfg.Base.StatsWindow),
	}
	for i := range r.pinOwner {
		r.pinOwner[i] = -1
	}
	if cfg.controlled() {
		r.nextTick = cfg.Autoscale.Interval
	} else {
		r.nextTick = math.Inf(1)
	}
	for s := 0; s < cfg.Shards; s++ {
		sh, err := r.newShard(cfg.GPUTiers[s%len(cfg.GPUTiers)], 0)
		if err != nil {
			r.Close()
			return nil, err
		}
		if cfg.Autoscale.Enabled {
			if err := sh.srv.ResizeAt(cfg.Autoscale.Min, 0); err != nil {
				r.Close()
				return nil, err
			}
		}
	}
	return r, nil
}

// newShard builds the next shard — a Server over the full Base and the
// cluster's shared worlds on the named GPU tier, its events feeding the
// merged books — and appends it to the cluster. Called with r.mu held
// (or before the Router escapes New).
func (r *Router) newShard(tierName string, bornAt float64) (*shard, error) {
	tier, err := gpumodel.TierByName(tierName)
	if err != nil {
		return nil, err
	}
	model := r.cfg.tierModel(tier)
	sh := &shard{tier: tier, alive: true, bornAt: bornAt, lastMig: math.Inf(-1)}
	cfg := r.cfg.Base
	cfg.Sink = shardSink{r: r, sh: sh, idx: len(r.shards)}
	cfg.GPU = &model
	if sh.srv, err = serve.NewShared(cfg, r.worlds); err != nil {
		return nil, err
	}
	r.shards = append(r.shards, sh)
	return sh, nil
}

// Placement returns each stream's hash-home shard and current owner
// shard (they differ for load-capped placements and migrated streams,
// which pay the hop latency).
func (r *Router) Placement() (home, owner []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.home...), append([]int(nil), r.owner...)
}

// Submit routes one frame to its stream's current owner shard, first
// running every control tick due at or before the arrival time. Frames
// owned off their hash home pay the configured hop latency on their
// arrival stamp.
func (r *Router) Submit(stream, frame int, arriveAt float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if stream < 0 || stream >= r.cfg.Base.Streams {
		return fmt.Errorf("serve/cluster: Submit: stream %d out of range [0,%d)", stream, r.cfg.Base.Streams)
	}
	r.controlTo(arriveAt)
	s := r.owner[stream]
	if !r.shards[s].alive {
		if math.IsNaN(arriveAt) || math.IsInf(arriveAt, 0) || frame < 0 || frame > r.cfg.Base.MaxFrame {
			// A poison pill: the dead owner's Submit applies the poison
			// policy without touching its clock or sessions.
			return r.forward(s, stream, frame, arriveAt)
		}
		// The owner is dead and no live shard could take the stream (a
		// whole-cluster outage): buffer the frame, keeping its arrival
		// stamp, until a revival or addition restores capacity.
		r.orphans = append(r.orphans, orphanFrame{stream: stream, frame: frame, at: arriveAt})
		return nil
	}
	return r.forward(s, stream, frame, arriveAt)
}

// forward submits a frame to shard s. Frames routed off their stream's
// hash home pay the hop latency on their arrival stamp. Called with
// r.mu held.
func (r *Router) forward(s, stream, frame int, at float64) error {
	if s != r.home[stream] {
		at += r.cfg.HopLatency
	}
	return r.shards[s].srv.Submit(stream, frame, at)
}

// controlTo runs every control tick at or before t: each shard is
// advanced to the tick time so its Stats are current, then the
// autoscaler and the migration policy fire in shard order. A
// non-finite t runs none: it is a poison arrival, which the owner
// shard's Submit rejects or drops. Called with r.mu held.
func (r *Router) controlTo(t float64) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return
	}
	for r.nextTick <= t {
		e := r.nextTick
		r.nextTick += r.cfg.Autoscale.Interval
		// Faults fire at tick start, so the autoscaler and the
		// migration policy below observe the post-fault cluster — the
		// survivors' backlog spike is exactly what they exist to shed.
		r.runFaults(e)
		stats := r.tickStats[:0]
		for _, sh := range r.shards {
			sh.srv.AdvanceTo(e)
			stats = append(stats, sh.srv.Stats())
		}
		r.tickStats = stats
		if r.cfg.Autoscale.Enabled {
			for s, sh := range r.shards {
				if sh.alive {
					r.autoscaleShard(s, e, stats[s])
				}
			}
		}
		if r.cfg.Migration.QueueDepth > 0 {
			for s, sh := range r.shards {
				if sh.alive {
					r.maybeMigrate(s, e, stats)
				}
			}
		}
	}
}

// autoscaleShard applies the elastic policy to one shard at control
// tick e. Called with r.mu held.
func (r *Router) autoscaleShard(s int, e float64, st serve.Stats) {
	a := r.cfg.Autoscale
	sh := r.shards[s]
	if e < sh.pending {
		return // a resize is still provisioning; no stacked decisions
	}
	execs := st.Executors
	grow := st.QueueDepth >= a.UpQueue
	if a.P99 > 0 && st.Fleet.Latency.P99 > a.P99 && st.QueueDepth > 0 {
		grow = true
	}
	switch {
	case grow && execs < a.Max:
		add := st.QueueDepth / a.UpQueue
		if add < 1 {
			add = 1
		}
		n := execs + add
		if n > a.Max {
			n = a.Max
		}
		r.resizeShard(s, n, e+sh.tier.ScaleUpLatency)
		sh.idleTicks = 0
	case st.QueueDepth == 0 && st.BusyExecutors == 0 && execs > a.Min:
		sh.idleTicks++
		if sh.idleTicks >= a.DownIdle {
			// Release is immediate: handing capacity back has no
			// provisioning latency.
			r.resizeShard(s, a.Min, e)
			sh.idleTicks = 0
		}
	default:
		sh.idleTicks = 0
	}
}

// resizeShard schedules a shard capacity change and books the event.
// Called with r.mu held.
func (r *Router) resizeShard(s, n int, at float64) {
	if err := r.shards[s].srv.ResizeAt(n, at); err != nil {
		return // only closed/invalid-time, neither reachable here
	}
	r.shards[s].pending = at
	r.resizes++
	if r.cfg.Sink != nil {
		r.cfg.Sink.ClusterEvent(Event{Kind: EventResize, Shard: s, Executors: n, Time: at})
	}
}

// maybeMigrate moves the hottest migratable stream off shard s when its
// backlog justifies it. Called with r.mu held, stats indexed by shard.
func (r *Router) maybeMigrate(s int, e float64, stats []serve.Stats) {
	m := r.cfg.Migration
	if len(r.shards) < 2 || e-r.shards[s].lastMig < m.Cooldown {
		return
	}
	// Hottest candidate stream on s: deepest per-stream backlog at or
	// over the arm threshold, migration budget left; lowest index wins
	// ties.
	hot, hotDepth := -1, 0
	for stream, owner := range r.owner {
		if owner != s || r.migCount[stream] >= m.MaxPerStream {
			continue
		}
		d := 0
		if q := stats[s].PerStreamQueue; stream < len(q) {
			d = q[stream]
		}
		if d >= m.QueueDepth && d > hotDepth {
			hot, hotDepth = stream, d
		}
	}
	if hot < 0 {
		return
	}
	// Least-loaded live target by total backlog, then by owned-stream
	// count, then lowest index.
	target := -1
	for t := range r.shards {
		if t == s || !r.shards[t].alive {
			continue
		}
		if target < 0 {
			target = t
			continue
		}
		if stats[t].QueueDepth != stats[target].QueueDepth {
			if stats[t].QueueDepth < stats[target].QueueDepth {
				target = t
			}
			continue
		}
		if r.ownedCount(t) < r.ownedCount(target) {
			target = t
		}
	}
	if target < 0 || stats[s].QueueDepth-stats[target].QueueDepth <= m.MinGain {
		return
	}
	r.migCount[hot]++
	r.shards[s].lastMig = e
	r.migrations++
	r.moveOwner(hot, s, target, e, EventMigrate)
}

// ownedCount is the number of streams currently owned by shard s.
// Called with r.mu held.
func (r *Router) ownedCount(s int) int {
	n := 0
	for _, o := range r.owner {
		if o == s {
			n++
		}
	}
	return n
}

// ownedBy lists the streams shard s currently owns, ascending (nil when
// none). Called with r.mu held.
func (r *Router) ownedBy(s int) []int {
	var owned []int
	for stream, o := range r.owner {
		if o == s {
			owned = append(owned, stream)
		}
	}
	return owned
}

// Stats returns a live merged snapshot of the cluster. Its fleet row
// is built the way Result.Fleet is — the shards' rows added, the
// failover ledger applied, then derived over the makespan so far — so
// after Drain its counters, throughput and drop rate equal the merged
// Result's; its Latency covers the latest Base.StatsWindow served
// frames across every shard.
func (r *Router) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Fleet:         serve.StreamStats{ID: "cluster"},
		PerShardQueue: make([]int, len(r.shards)),
		Migrations:    r.migrations,
		Resizes:       r.resizes,
		Orphaned:      len(r.orphans),
	}
	for s, sh := range r.shards {
		ss := sh.srv.Stats()
		if ss.Now > st.Now {
			st.Now = ss.Now
		}
		st.Fleet.Add(ss.Fleet)
		st.QueueDepth += ss.QueueDepth
		st.BusyExecutors += ss.BusyExecutors
		st.Executors += ss.Executors
		st.PerShardQueue[s] = ss.QueueDepth
		if !sh.alive {
			st.DeadShards++
		}
	}
	replayed, dropped := 0, 0
	for i := range r.replayed {
		replayed += r.replayed[i]
		dropped += r.dropFail[i]
	}
	applyFailover(&st.Fleet, replayed, dropped)
	st.Fleet.Derive(st.Now, r.window)
	return st
}

// applyFailover books a cluster row's failover ledger: replayed seized
// frames re-submitted to survivors and dropped ones abandoned. A
// replayed frame arrived twice — once on the shard that died holding
// it, once on the survivor that served it — so subtracting the replays
// keeps the row's Arrived equal to the offered schedule, and arrived ==
// served + drops + dropped_failover holds under any FailoverPolicy.
// Both the merged Result and Router.Stats book through it.
func applyFailover(row *serve.StreamStats, replayed, dropped int) {
	row.Replayed = replayed
	row.DroppedFailover = dropped
	row.Arrived -= replayed
}

// Stats is a live merged snapshot of a Router, the cluster counterpart
// of serve.Stats.
type Stats struct {
	Now float64 `json:"now_s"`
	// Fleet sums every shard's fleet row with the failover ledger
	// applied (see Router.Stats).
	Fleet         serve.StreamStats `json:"fleet"`
	QueueDepth    int               `json:"queue_depth"`
	BusyExecutors int               `json:"busy_executors"`
	Executors     int               `json:"executors"`
	PerShardQueue []int             `json:"per_shard_queue"`
	Migrations    int               `json:"migrations"`
	Resizes       int               `json:"resizes"`
	// Failure-injection state, zero (and absent from the JSON) without
	// an active FaultPlan: shards currently dead and frames buffered
	// with no live shard to serve them.
	DeadShards int `json:"dead_shards,omitempty"`
	Orphaned   int `json:"orphaned,omitempty"`
}

// Drain runs every shard's backlog dry and merges the books. A shard
// parked at zero executors with frames still queued is revived to one
// executor first (after its tier's scale-up latency) so every admitted
// frame reaches an outcome — the park-guard a real operator would call
// scale-from-zero. Like serve.Server.Drain it does not close the
// Router; on context cancellation partial shard state is kept.
func (r *Router) Drain(ctx context.Context) (*Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	// Flush the remaining fault schedule: ticks are driven by Submit,
	// so kills, revivals and additions due after the last arrival would
	// otherwise never fire. Each controlTo call runs exactly one tick.
	for r.nextFault < len(r.faults) {
		r.controlTo(r.nextTick)
	}
	if len(r.orphans) > 0 {
		// Frames still parked with no live shard: the whole cluster died
		// and no revival was scheduled. A real operator's last resort is
		// bringing one node back — revive the lowest-index dead shard at
		// the cluster's current makespan so every admitted frame still
		// reaches an outcome in the merged book.
		now := 0.0
		for _, sh := range r.shards {
			if st := sh.srv.Stats(); st.Now > now {
				now = st.Now
			}
		}
		for s, sh := range r.shards {
			if !sh.alive {
				r.reviveShard(s, now)
				break
			}
		}
	}
	for s, sh := range r.shards {
		if !sh.alive {
			continue // a dead shard's backlog was seized at the kill
		}
		st := sh.srv.Stats()
		if st.QueueDepth > 0 && st.Executors == 0 {
			n := 1
			if r.cfg.Autoscale.Enabled && r.cfg.Autoscale.Min > n {
				n = r.cfg.Autoscale.Min
			}
			r.resizeShard(s, n, st.Now+sh.tier.ScaleUpLatency)
		}
	}
	books := make([]*serve.Result, len(r.shards))
	for s, sh := range r.shards {
		res, err := sh.srv.Drain(ctx)
		if err != nil {
			return nil, err
		}
		books[s] = res
	}
	return r.merge(books), nil
}

// Close closes every shard. Closing twice is a no-op.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for _, sh := range r.shards {
		sh.srv.Close()
	}
	return nil
}

// Run executes one closed-loop cluster scenario: build the Router,
// replay the Base config's preset arrival schedule through it in global
// virtual-time order, drain and merge. The same Config produces a
// byte-identical Result on any machine at any Base.StepWorkers.
func Run(cfg Config) (*Result, error) {
	r, err := New(cfg)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	for _, a := range serve.Schedule(r.cfg.Base) {
		if err := r.Submit(a.Stream, a.Frame, a.At); err != nil {
			return nil, err
		}
	}
	return r.Drain(context.Background())
}
