package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/video"
)

// offlineWorkers is the engine's pool size: the container has two CPUs.
const offlineWorkers = 2

// table2System is one row of the paper's Table 2.
type table2System struct {
	key  string // metric suffix
	spec sim.SystemSpec
}

// table2Systems are the five systems of Table 2, in its row order.
func table2Systems() []table2System {
	cfg := core.DefaultConfig()
	return []table2System{
		{"single_r50", sim.SystemSpec{Kind: sim.Single, Refinement: "resnet50"}},
		{"cascaded_r10a", sim.SystemSpec{Kind: sim.Cascaded, Proposal: "resnet10a", Refinement: "resnet50", Cfg: cfg}},
		{"catdet_r10a", sim.SystemSpec{Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: cfg}},
		{"cascaded_r10b", sim.SystemSpec{Kind: sim.Cascaded, Proposal: "resnet10b", Refinement: "resnet50", Cfg: cfg}},
		{"catdet_r10b", sim.SystemSpec{Kind: sim.CaTDet, Proposal: "resnet10b", Refinement: "resnet50", Cfg: cfg}},
	}
}

// catdetRow is the Table 2 row of CaTDet (res10a, res50), the system the
// paper's headline numbers describe.
const catdetRow = 2

// timedSystem wraps a session to time each Step: the per-frame latency a
// caller feeding frames one at a time would wait for.
type timedSystem struct {
	core.System
	lat *[]int64
}

func (s timedSystem) Step(f detector.Frame) core.FrameOutput {
	t := time.Now()
	out := s.System.Step(f)
	*s.lat = append(*s.lat, int64(time.Since(t)))
	return out
}

// tracedSystem wraps a session to record a core.step span per frame,
// replay the layers under it and price it on the modeled GPU clock (the
// quantity of the paper's Table 7).
type tracedSystem struct {
	core.System
	sh      *shadow
	modeled []float64 // per-frame modeled seconds
	busy    int64     // ns spent in Step, replays included
}

func (s *tracedSystem) Reset(seq *dataset.Sequence) {
	s.System.Reset(seq)
	s.sh.reset(seq)
}

func (s *tracedSystem) Step(f detector.Frame) core.FrameOutput {
	rec := s.sh.rec
	t0 := rec.now()
	out := s.System.Step(f)
	req := int32(f.Index)
	id := rec.end(spCoreStep, noParent, req, t0)
	if !s.sh.replay(f, &out, id, req) {
		s.sh.n.mismatches++
	}
	// The offline systems never price frames: the pricing replay is a
	// root span, not a child of the step.
	price, _ := s.sh.price(f, &out, "", noParent, req)
	s.modeled = append(s.modeled, price)
	s.busy += rec.now() - t0
	return out
}

// offlinePreset is the world the workload runs on: full KITTI-sim.
func offlinePreset(tiny bool) video.Preset {
	if tiny {
		return video.MiniKITTIPreset()
	}
	return video.KITTIPreset()
}

// table2Row evaluates one run as Table 2 does.
func table2Row(ds *dataset.Dataset, r *sim.RunResult) sim.MainRow {
	evM := sim.Evaluate(ds, r, dataset.Moderate, sim.Beta)
	evH := sim.Evaluate(ds, r, dataset.Hard, sim.Beta)
	return sim.MainRow{
		System:       r.SystemName,
		Gops:         r.AvgGops(),
		MAPModerate:  evM.MAP,
		MAPHard:      evH.MAP,
		MD08Moderate: evM.MeanDelay,
		MD08Hard:     evH.MeanDelay,
	}
}

func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

// runOffline is the offline-table2 workload: the five Table 2 systems,
// each run by sim.Engine over a whole KITTI-sim world and evaluated at
// Moderate and Hard, as cmd/experiments does.
func runOffline(o options) (*result, error) {
	res := newResult()
	preset := offlinePreset(o.tiny)
	systems := table2Systems()
	eng := sim.Engine{Workers: offlineWorkers}

	// Step latencies land in buffers allocated before the timed phase,
	// so the timing probe allocates nothing inside a pass.
	frames := preset.NumSequences * preset.FramesPerSeq
	latBufs := make([][]int64, len(systems)*offlineWorkers)
	for i := range latBufs {
		latBufs[i] = make([]int64, 0, frames)
	}
	var stepLat []int64
	var ps passStats
	var gen []float64
	runWall := make([][]float64, len(systems))
	digests := make([]string, worldsPerRun)
	rows := make([][]sim.MainRow, worldsPerRun)
	pass := func(world int) error {
		// Set-up: generate the world and build the five systems. The
		// heap in use before it is the benchmark's own.
		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		t0 := time.Now()
		ds := video.Generate(preset, worldSeed(o.seed, world))
		gen = append(gen, time.Since(t0).Seconds())
		probes := make([]core.System, len(systems))
		for i, s := range systems {
			sys, err := s.spec.Build(ds.Classes)
			if err != nil {
				return err
			}
			probes[i] = sys
		}
		setup := time.Since(t0).Seconds()

		for i := range latBufs {
			latBufs[i] = latBufs[i][:0]
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t1 := time.Now()
		passRows := make([]sim.MainRow, len(systems))
		runs := make([]*sim.RunResult, len(systems))
		for i, s := range systems {
			built := 0
			factory := func() (core.System, error) {
				sys := probes[i]
				if built > 0 {
					var err error
					if sys, err = s.spec.Build(ds.Classes); err != nil {
						return nil, err
					}
				}
				lat := &latBufs[i*offlineWorkers+built%offlineWorkers]
				built++
				return timedSystem{System: sys, lat: lat}, nil
			}
			tr := time.Now()
			r, err := eng.RunFactory(factory, ds)
			if err != nil {
				return err
			}
			runWall[i] = append(runWall[i], time.Since(tr).Seconds())
			runs[i] = r
			passRows[i] = table2Row(ds, r)
		}
		wall := time.Since(t1).Seconds()
		runtime.ReadMemStats(&m1)
		n := len(systems) * ds.NumFrames()

		runtime.GC()
		var m2 runtime.MemStats
		runtime.ReadMemStats(&m2)
		runtime.KeepAlive(runs)

		live := float64(m2.HeapAlloc) - float64(base.HeapAlloc)
		ps.add(world, setup, float64(n)/wall, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n), live/1e6)
		for _, b := range latBufs {
			stepLat = append(stepLat, b...)
		}
		res.attempted += n
		if offlineChecks(res, passRows, &digests[world]) {
			res.failed += n
		}
		rows[world] = passRows
		return nil
	}
	if err := timedPhase(o.seconds, pass); err != nil {
		return nil, err
	}
	ps.fill(res.e2e)
	latencyMetrics(res.e2e, stepLat)
	var mapH, md08, saving []float64
	for _, r := range rows {
		mapH = append(mapH, r[catdetRow].MAPHard)
		md08 = append(md08, r[catdetRow].MD08Hard)
		saving = append(saving, r[0].Gops/r[catdetRow].Gops)
	}
	res.e2e["map_hard"] = mean(mapH)
	res.e2e["md08_hard"] = mean(md08)
	res.e2e["ops_saving_x"] = mean(saving)
	for i, s := range systems {
		res.layer["sim.run_s."+s.key] = median(runWall[i])
	}
	res.layer["video.generate_s"] = median(gen)

	if err := tracedOffline(o, res, preset, systems, eng, &digests[0]); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	return res, nil
}

// offlineChecks runs the per-pass correctness checks: the Table 2 digest
// matches every earlier pass over the same world and the paper's three
// Table 2 shape conditions hold. It reports whether any failed.
func offlineChecks(res *result, rows []sim.MainRow, digest *string) bool {
	bad := false
	d, err := digestOf(rows)
	if err != nil {
		res.fail("%v", err)
		return true
	}
	if *digest == "" {
		*digest = d
	} else if d != *digest {
		res.fail("table 2 digest %s differs from the first pass's %s", d[:12], (*digest)[:12])
		bad = true
	}
	for _, v := range (&sim.Report{Table2: rows}).ShapeCheck() {
		res.fail("shape: %s", v)
		bad = true
	}
	return bad
}

// tracedOffline is the offline traced run: one more pass, over the first
// world, in which each step is wrapped to record spans and replay its
// layers, the world is regrown frame by frame through video.Grower, and
// the metrics package is called directly on each run's detections. The
// timed passes already give every world's Table 2 rows; one world is
// enough for the per-layer split and the modeled p99.
func tracedOffline(o options, res *result, preset video.Preset, systems []table2System, eng sim.Engine, digest *string) error {
	epoch := time.Now()
	root := newRecorder(epoch)
	var counts layerCounts
	var modeled []float64
	var busy int64
	var engineWall time.Duration
	grown, dets := 0, 0
	tracedStart := time.Now()
	seed := worldSeed(o.seed, 0)
	ds := video.Generate(preset, seed)
	for s := 0; s < preset.NumSequences; s++ {
		t := root.now()
		g := video.NewGrower(preset, seed, s)
		g.Grow(preset.FramesPerSeq)
		root.end(spVideoGrow, noParent, int32(s), t)
		grown += len(g.Sequence().Frames)
	}

	rows := make([]sim.MainRow, len(systems))
	for i, s := range systems {
		var wrapped []*tracedSystem
		factory := func() (core.System, error) {
			sys, err := s.spec.Build(ds.Classes)
			if err != nil {
				return nil, err
			}
			sh, err := newShadow(s.spec, ds.Classes, newRecorder(epoch))
			if err != nil {
				return nil, err
			}
			ts := &tracedSystem{System: sys, sh: sh}
			wrapped = append(wrapped, ts)
			return ts, nil
		}
		t := root.now()
		tr := time.Now()
		r, err := eng.RunFactory(factory, ds)
		if err != nil {
			return err
		}
		engineWall += time.Since(tr)
		root.end(spSimRun, noParent, int32(i), t)
		for _, ts := range wrapped {
			root.merge(ts.sh.rec)
			counts.add(&ts.sh.n)
			busy += ts.busy
			if i == catdetRow {
				modeled = append(modeled, ts.modeled...)
			}
		}

		// metrics: call MAP and MeanDelayAtPrecision directly and
		// check they agree with sim.Evaluate.
		t = root.now()
		mapH, _ := metrics.MAP(ds, r.Detections, dataset.Hard)
		root.end(spMetricsMAP, noParent, int32(i), t)
		t = root.now()
		mdH, _, _ := metrics.MeanDelayAtPrecision(ds, r.Detections, dataset.Hard, sim.Beta)
		root.end(spMetricsDelay, noParent, int32(i), t)
		for _, seq := range r.Detections {
			for _, fr := range seq {
				dets += len(fr)
			}
		}
		rows[i] = table2Row(ds, r)
		if rows[i].MAPHard != mapH || rows[i].MD08Hard != mdH {
			res.fail("%s: direct metrics (%v, %v) differ from sim.Evaluate (%v, %v)", s.key, mapH, mdH, rows[i].MAPHard, rows[i].MD08Hard)
		}
	}
	tracedWall := time.Since(tracedStart).Seconds()
	n := len(systems) * ds.NumFrames()
	res.attempted += n
	bad := offlineChecks(res, rows, digest)
	if counts.mismatches > 0 {
		res.fail("%d replayed frames differ from the session's output", counts.mismatches)
		bad = true
	}
	if bad {
		res.failed += n
	}

	for _, d := range perLayer {
		for _, idle := range []string{"serve.", "sched.", "control.", "cluster."} {
			if strings.HasPrefix(d.name, idle) {
				res.layer[d.name] = 0
			}
		}
	}
	st := aggregate(root.spans)
	layerMetrics(res.layer, st, &counts)
	st.sumCheck(res.layer)
	res.layer["video.grow_ns_per_frame"] = float64(st.total[spVideoGrow]) / float64(grown)
	res.layer["video.frames_grown"] = float64(grown)
	res.layer["metrics.map_s"] = float64(st.total[spMetricsMAP]) / 1e9
	res.layer["metrics.delay_s"] = float64(st.total[spMetricsDelay]) / 1e9
	res.layer["metrics.dets_scored"] = float64(dets)
	res.layer["sim.parallel_eff"] = float64(busy) / (offlineWorkers * float64(engineWall))
	// The traced pass also generates the world and evaluates each run
	// twice (sim.Evaluate and the direct metrics calls); all of it is
	// tracing overhead.
	res.layer["trace.overhead_x"] = tracedWall / (float64(n) / res.e2e["frames_per_s"])
	res.layer["trace.replay_s"] = replaySeconds(st)

	sort.Float64s(modeled)
	res.e2e["modeled_p99_ms"] = 1e3 * nearestRank(modeled, 0.99)
	res.e2e["served_frac"] = float64(counts.frames) / float64(n)
	if o.spans != "" {
		return writeSpans(o.spans, root.spans)
	}
	return nil
}
