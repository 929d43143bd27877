// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed wall time, checks that the outputs are correct and
// prints one JSON result line: the end-to-end metrics with --trace 0, the
// per-layer metrics of an extra traced run with --trace 1. See README.md
// for the workloads, the metrics and how they relate.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload offline-table2 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // traced-run span dump; "" = none (set under --trace 1)
	tiny     bool   // shrink every workload (set by the smoke test)
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed with
// --trace 0 on every workload. BENCHMARK.json declares the same list.
var endToEnd = []metricDef{
	{"frames_per_s", "frames/s"},
	{"setup_s", "s"},
	{"submit_p50_us", "us"},
	{"submit_p99_us", "us"},
	{"alloc_bytes_per_frame", "B"},
	{"live_heap_mb", "MB"},
	{"map_hard", "mAP"},
	{"md08_hard", "frames"},
	{"ops_saving_x", "x"},
	{"modeled_p99_ms", "ms"},
	{"served_frac", "frac"},
}

// perLayer are the traced run's metrics, printed with --trace 1 on every
// workload; a layer the workload leaves idle reports 0.
var perLayer = []metricDef{
	{"video.generate_s", "s"},
	{"video.grow_ns_per_frame", "ns"},
	{"video.frames_grown", "count"},
	{"detector.full_ns", "ns"},
	{"detector.full_calls", "count"},
	{"detector.regions_ns", "ns"},
	{"detector.regions_calls", "count"},
	{"detector.dets_per_call", "count"},
	{"geom.mask_ns_per_frame", "ns"},
	{"geom.regions_per_frame", "count"},
	{"geom.coverage", "frac"},
	{"tracker.predict_ns", "ns"},
	{"tracker.observe_ns", "ns"},
	{"tracker.live_tracks", "count"},
	{"tracker.dets_in", "count"},
	{"core.step_ns_p50", "ns"},
	{"core.step_ns_sum", "ns"},
	{"core.self_ns", "ns"},
	{"gpumodel.price_ns", "ns"},
	{"gpumodel.merge_ratio", "ratio"},
	{"gpumodel.modeled_gpu_ms_per_frame", "ms"},
	{"metrics.map_s", "s"},
	{"metrics.delay_s", "s"},
	{"metrics.dets_scored", "count"},
	{"sim.run_s.single_r50", "s"},
	{"sim.run_s.cascaded_r10a", "s"},
	{"sim.run_s.catdet_r10a", "s"},
	{"sim.run_s.cascaded_r10b", "s"},
	{"sim.run_s.catdet_r10b", "s"},
	{"sim.parallel_eff", "frac"},
	{"serve.submit_ns", "ns"},
	{"serve.drain_ns", "ns"},
	{"serve.stats_ns", "ns"},
	{"serve.self_ns", "ns"},
	{"serve.sink_events_per_submit", "count"},
	{"serve.batches", "count"},
	{"serve.utilization", "frac"},
	{"serve.max_queue_depth", "count"},
	{"sched.admit_ns", "ns"},
	{"sched.next_ns", "ns"},
	{"sched.evict_ratio", "frac"},
	{"sched.stale_ratio", "frac"},
	{"control.ticks", "count"},
	{"control.mode_switches", "count"},
	{"control.degraded_ratio", "frac"},
	{"cluster.submit_ns", "ns"},
	{"cluster.drain_ns", "ns"},
	{"cluster.migrations", "count"},
	{"cluster.resizes", "count"},
	{"cluster.kills", "count"},
	{"cluster.replayed", "count"},
	{"cluster.rebalanced", "count"},
	{"replay.frames_checked", "count"},
	{"replay.frames_after_seize", "count"},
	{"sumcheck.residual_frac", "frac"},
	{"sumcheck.negative_self", "count"},
	{"trace.overhead_x", "x"},
	{"trace.replay_s", "s"},
}

// result is what one invocation measured.
type result struct {
	attempted, failed int
	// failures lists every correctness check that did not hold.
	failures []string
	e2e      map[string]float64
	layer    map[string]float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a failed check; the caller decides how many operations
// it spoils.
func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"offline-table2":   runOffline,
	"serve-steady":     runServeSteady,
	"cluster-overload": runClusterOverload,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report folds a result into the printed JSON object: the end-to-end
// metrics, or the per-layer ones for a traced invocation. A missing or
// non-finite metric is itself a failed check.
func report(o options, r *result) output {
	defs, vals := endToEnd, r.e2e
	if o.trace {
		defs, vals = perLayer, r.layer
	}
	out := output{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s missing or not finite (%v)", d.name, v)
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(r.failures) > 0 && r.failed == 0 {
		// A check not tied to one pass spoils the whole run.
		r.failed = r.attempted
	}
	out.Attempted, out.Failed = r.attempted, r.failed
	out.Correct = r.failed == 0 && len(r.failures) == 0
	return out
}

func main() {
	var o options
	var seconds int
	flag.StringVar(&o.workload, "workload", "", "workload to run: offline-table2, serve-steady or cluster-overload")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated world and arrival schedule")
	flag.IntVar(&seconds, "seconds", 20, "wall seconds of timed passes")
	traceFlag := flag.Int("trace", 0, "1 prints the traced run's per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	o.seconds = float64(seconds)
	o.trace = *traceFlag == 1
	if o.trace {
		o.spans = filepath.Join(".bench_build", "spans-"+o.workload+".csv")
	}
	run, ok := workloads[o.workload]
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || seconds < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %d)\n", o.workload, *traceFlag, seconds)
		os.Exit(2)
	}
	// The benchmark machine has two CPUs; pinning the pool keeps runs
	// comparable on a host with more.
	runtime.GOMAXPROCS(2)
	start := time.Now()
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := report(o, r)
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d operations, %d failed, %.1fs\n",
		o.workload, o.seed, out.Attempted, out.Failed, time.Since(start).Seconds())
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
