package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
	"repro/internal/serve/control"
	"repro/internal/serve/sched"
	"repro/internal/sim"
)

// catdetSpec is the system every serving stream runs: CaTDet (res10a,
// res50) with the paper's settings.
func catdetSpec() sim.SystemSpec {
	return sim.SystemSpec{Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: core.DefaultConfig()}
}

// scenario is one serving workload's fixed shape. The benchmark makes the
// arrival schedule itself and hands the program only (stream, frame, at)
// tuples through Submit.
type scenario struct {
	base    serve.Config
	cluster *cluster.Config // nil: one serve.Server
	fps     float64
	// period and duty gate arrivals through an on/off square wave on the
	// virtual clock (period 0: always on).
	period, duty float64
	// poll is the virtual-time spacing of dashboard Stats polls (0: none).
	poll float64
}

// steady reports whether every arrival must be served and the books
// price each served frame exactly as the replay does: a single server
// has no kills and keeps dispatch-time accounting.
func (sc scenario) steady() bool { return sc.cluster == nil }

// serveSteadyScenario: 32 KITTI-sim streams with open-loop Poisson
// arrivals at 10 fps each, FIFO with no queue cap, and enough executors
// for a modeled utilization of about 0.7, so every arrival is served.
func serveSteadyScenario(tiny bool) scenario {
	sc := scenario{
		base: serve.Config{
			Spec: catdetSpec(), Streams: 32, Duration: 30, Executors: 43,
			StepWorkers: 2, Scheduler: sched.FIFO, QueueCap: -1,
		},
		fps: 10, poll: 0.5,
	}
	if tiny {
		sc.base.Streams, sc.base.Duration, sc.base.Executors = 4, 3, 6
	}
	return sc
}

// clusterOverloadScenario: 64 streams routed over 4 shards, bursty
// arrivals (period 4 s, duty 0.25) several times the modeled capacity,
// with a queue cap, a staleness bound, the baseline controller,
// migration, autoscaling and seeded shard kills with replay failover.
func clusterOverloadScenario(tiny bool) scenario {
	base := serve.Config{
		Spec: catdetSpec(), Streams: 64, Duration: 120, Executors: 1,
		StepWorkers: 2, Scheduler: sched.FIFO, QueueCap: 8, MaxStaleness: 0.5,
		Control: control.Config{Kind: control.KindBaseline},
	}
	cc := cluster.Config{
		Shards:    4,
		Migration: cluster.Migration{QueueDepth: 2, Cooldown: 1, MaxPerStream: 2},
		Autoscale: cluster.Autoscale{Enabled: true, Min: 1, Max: 2},
		// The kill process keeps one seed for every world: the seed
		// drives worlds and arrivals, and a kill count that varied with
		// it would swamp the run-to-run spread.
		Faults: cluster.FaultPlan{MTBF: 8, MTTR: 2, Failover: cluster.FailoverReplay, Seed: 1},
	}
	if tiny {
		base.Streams, base.Duration = 8, 12
	}
	return scenario{base: base, cluster: &cc, fps: 10, period: 4, duty: 0.25}
}

func runServeSteady(o options) (*result, error) {
	return runServing(o, serveSteadyScenario(o.tiny))
}

func runClusterOverload(o options) (*result, error) {
	return runServing(o, clusterOverloadScenario(o.tiny))
}

// arrivalSchedule draws every stream's open-loop Poisson arrivals at fps
// from the seed. With a period, the process runs on an "on-time" clock
// that only advances during the first duty share of each window, so the
// rate is fps inside a burst and zero between bursts. Frame k of a
// stream is its k-th arrival. The result is sorted by (time, stream).
func arrivalSchedule(seed int64, streams int, fps, duration, period, duty float64) []serve.Arrival {
	var out []serve.Arrival
	for s := 0; s < streams; s++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(s)*7_919 + 1))
		u := 0.0
		for k := 0; ; k++ {
			u += rng.ExpFloat64() / fps
			t := u
			if period > 0 {
				on := duty * period
				w := math.Floor(u / on)
				t = w*period + (u - w*on)
			}
			if t >= duration {
				break
			}
			out = append(out, serve.Arrival{Stream: s, Frame: k, At: t})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Stream < out[j].Stream
	})
	return out
}

// books is what the benchmark reads back from either a serve.Result or
// a merged cluster.Result.
type books struct {
	digest    string
	fleet     serve.StreamStats
	perStream []serve.StreamStats
	shards    []*serve.Result
	// Cluster control-plane totals (0 for a single server).
	migrations, resizes, kills, replayed, rebalanced int
}

func serverBooks(r *serve.Result) (*books, error) {
	d, err := digestOf(r)
	if err != nil {
		return nil, err
	}
	return &books{digest: d, fleet: r.Fleet, perStream: r.PerStream, shards: []*serve.Result{r}}, nil
}

func clusterBooks(r *cluster.Result) (*books, error) {
	d, err := digestOf(r)
	if err != nil {
		return nil, err
	}
	b := &books{digest: d, fleet: r.Fleet, perStream: r.PerStream, migrations: r.Migrations, resizes: r.Resizes}
	for _, sb := range r.PerShard {
		b.shards = append(b.shards, sb.Result)
	}
	if f := r.Faults; f != nil {
		b.kills, b.replayed, b.rebalanced = f.Kills, f.Replayed, f.Rebalanced
	}
	return b, nil
}

// executorSeconds are the busy and available executor time of the books:
// utilization times capacity, shard by shard.
func (b *books) executorSeconds() (busy, capacity float64) {
	for _, r := range b.shards {
		c := r.ExecutorSeconds
		if c == 0 {
			c = float64(r.Executors) * r.LastEventAt
		}
		busy += r.Utilization * c
		capacity += c
	}
	return busy, capacity
}

// conservation checks the per-stream frame ledger the serving layers
// assert: every offered frame reaches exactly one terminal outcome, the
// failover channels reconcile, and each stream's arrivals equal what the
// benchmark submitted.
func (b *books) conservation(submitted []int) []string {
	var bad []string
	rows := append([]serve.StreamStats{b.fleet}, b.perStream...)
	for _, r := range rows {
		if got := r.Served + r.DroppedQueue + r.DroppedStale + r.DroppedFailover; got != r.Arrived {
			bad = append(bad, fmt.Sprintf("%s: served+drops %d != arrived %d", r.ID, got, r.Arrived))
		}
		if r.FailedOver != r.Replayed+r.DroppedFailover {
			bad = append(bad, fmt.Sprintf("%s: failed_over %d != replayed %d + dropped_failover %d", r.ID, r.FailedOver, r.Replayed, r.DroppedFailover))
		}
	}
	if len(b.perStream) != len(submitted) {
		return append(bad, fmt.Sprintf("%d stream rows for %d streams", len(b.perStream), len(submitted)))
	}
	for s, r := range b.perStream {
		if r.Arrived != submitted[s] {
			bad = append(bad, fmt.Sprintf("%s: arrived %d, submitted %d", r.ID, r.Arrived, submitted[s]))
		}
	}
	return bad
}

// target is the system under test: one serve.Server or a cluster.Router.
type target interface {
	Submit(stream, frame int, at float64) error
	poll()
	drain() (*books, error)
	shardOf(stream int) int
	Close() error
}

type serverTarget struct{ *serve.Server }

func (t serverTarget) poll()           { t.Stats() }
func (t serverTarget) shardOf(int) int { return 0 }
func (t serverTarget) drain() (*books, error) {
	r, err := t.Drain(context.Background())
	if err != nil {
		return nil, err
	}
	return serverBooks(r)
}

type routerTarget struct{ *cluster.Router }

func (t routerTarget) poll() { t.Stats() }
func (t routerTarget) shardOf(stream int) int {
	_, owner := t.Placement()
	return owner[stream]
}
func (t routerTarget) drain() (*books, error) {
	r, err := t.Drain(context.Background())
	if err != nil {
		return nil, err
	}
	return clusterBooks(r)
}

// sinkEvent is one serving outcome as the traced run's sink saw it, with
// the shard and the call that emitted it (the world's arrival index, or
// len(arrivals) for Drain).
type sinkEvent struct {
	req   int32
	shard int
	ev    serve.Event
}

// newTarget builds the system for one pass; record, when non-nil,
// receives every per-frame event (the traced run's sink).
func (sc scenario) newTarget(seed int64, record func(shard int, e serve.Event)) (target, error) {
	base := sc.base
	base.Seed = seed
	if sc.cluster == nil {
		if record != nil {
			base.Sink = serve.SinkFunc(func(e serve.Event) { record(0, e) })
		}
		srv, err := serve.New(base)
		if err != nil {
			return nil, err
		}
		return serverTarget{srv}, nil
	}
	cc := *sc.cluster
	cc.Base = base
	if record != nil {
		cc.Sink = cluster.SinkFunc(func(e cluster.Event) {
			if e.Kind == cluster.EventServe {
				record(e.Shard, *e.Serve)
			} else {
				// A router decision: counted as a sink event, not replayed.
				record(-1, serve.Event{})
			}
		})
	}
	r, err := cluster.New(cc)
	if err != nil {
		return nil, err
	}
	return routerTarget{r}, nil
}

// servingWorld is one world's input: its seed, the arrival schedule the
// benchmark drew from it, and each stream's arrival count.
type servingWorld struct {
	seed      int64
	arr       []serve.Arrival
	submitted []int
	digest    string // books of the first pass, which every later pass must match
}

// runServing runs a serving workload: timed passes that each build the
// system, submit one world's whole schedule in time order (one client:
// the next Submit is issued when the previous returns), poll Stats and
// drain; then the traced run.
func runServing(o options, sc scenario) (*result, error) {
	res := newResult()
	worlds := make([]*servingWorld, worldsPerRun)
	longest := 0
	for j := range worlds {
		seed := worldSeed(o.seed, j)
		w := &servingWorld{seed: seed, submitted: make([]int, sc.base.Streams)}
		w.arr = arrivalSchedule(seed, sc.base.Streams, sc.fps, sc.base.Duration, sc.period, sc.duty)
		if len(w.arr) == 0 {
			return nil, fmt.Errorf("world %d: empty arrival schedule", j)
		}
		for _, a := range w.arr {
			w.submitted[a.Stream]++
		}
		longest = max(longest, len(w.arr))
		worlds[j] = w
	}
	lat := make([]int64, longest)
	var subLat []int64
	var ps passStats
	p99 := make([]float64, worldsPerRun)
	servedFrac := make([]float64, worldsPerRun)
	pass := func(world int) error {
		w := worlds[world]
		// The heap in use before set-up is the benchmark's own.
		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		t0 := time.Now()
		tg, err := sc.newTarget(w.seed, nil)
		if err != nil {
			return err
		}
		setup := time.Since(t0).Seconds()

		runtime.GC()
		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		errs := 0
		nextPoll := sc.poll
		t1 := time.Now()
		for i, a := range w.arr {
			if sc.poll > 0 && a.At >= nextPoll {
				tg.poll()
				for nextPoll <= a.At {
					nextPoll += sc.poll
				}
			}
			ts := time.Now()
			if err := tg.Submit(a.Stream, a.Frame, a.At); err != nil {
				errs++
			}
			lat[i] = int64(time.Since(ts))
		}
		b, err := tg.drain()
		if err != nil {
			return err
		}
		wall := time.Since(t1).Seconds()
		runtime.ReadMemStats(&m1)
		runtime.GC()
		runtime.ReadMemStats(&m2)
		runtime.KeepAlive(tg)
		tg.Close()

		n := len(w.arr)
		live := float64(m2.HeapAlloc) - float64(base.HeapAlloc)
		ps.add(world, setup, float64(n)/wall, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n), live/1e6)
		subLat = append(subLat, lat[:n]...)
		res.attempted += n
		if servingChecks(res, sc, b, w, errs) {
			res.failed += n
		}
		p99[world] = b.fleet.Latency.P99
		servedFrac[world] = float64(b.fleet.Served) / float64(b.fleet.Arrived)
		return nil
	}
	if err := timedPhase(o.seconds, pass); err != nil {
		return nil, err
	}
	ps.fill(res.e2e)
	latencyMetrics(res.e2e, subLat)
	res.e2e["modeled_p99_ms"] = 1e3 * mean(p99)
	res.e2e["served_frac"] = mean(servedFrac)
	if err := tracedServing(o, sc, res, worlds); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	return res, nil
}

// servingChecks runs the per-pass checks: no Submit failed, the books
// match every earlier pass over the same world, the conservation identity
// holds, and a steady scenario served everything. It reports whether any
// check failed.
func servingChecks(res *result, sc scenario, b *books, w *servingWorld, errs int) bool {
	bad := false
	if errs > 0 {
		res.fail("%d Submit calls failed", errs)
		bad = true
	}
	if w.digest == "" {
		w.digest = b.digest
	} else if b.digest != w.digest {
		res.fail("books digest %s differs from the first pass's %s", b.digest[:12], w.digest[:12])
		bad = true
	}
	for _, v := range b.conservation(w.submitted) {
		res.fail("conservation: %s", v)
		bad = true
	}
	if sc.steady() && b.fleet.Served != b.fleet.Arrived {
		res.fail("served %d of %d arrivals in a steady scenario", b.fleet.Served, b.fleet.Arrived)
		bad = true
	}
	return bad
}
