package sim

import (
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/metrics"
)

// SystemFactory builds a fresh System instance. Systems are stateful —
// tracker state is reset per sequence but lives inside the instance —
// so the parallel engine calls the factory once per worker instead of
// sharing one system across goroutines.
type SystemFactory func() (core.System, error)

// Engine runs experiments sharded per sequence across a worker pool.
// The zero value uses GOMAXPROCS workers; Workers = 1 degenerates to
// the serial path. Output is byte-identical for every worker count:
// both the serial and the parallel paths accumulate each sequence into
// its own shard and merge the shards in dataset order, so the floating
// point addition order never depends on scheduling.
type Engine struct {
	// Workers is the size of the worker pool; <= 0 means GOMAXPROCS.
	Workers int
}

func (e Engine) workers(nseq int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > nseq {
		w = nseq
	}
	if w < 1 {
		w = 1
	}
	return w
}

// mapSequences fans the dataset's sequences out over the engine's
// worker pool. newWorker creates one private worker state per
// goroutine (never shared, and always called sequentially from this
// goroutine); fn consumes sequences one at a time. Results are
// returned indexed by sequence, so callers can merge them in dataset
// order regardless of how the pool scheduled the work.
func mapSequences[W, S any](e Engine, ds *dataset.Dataset, newWorker func() (W, error), fn func(W, *dataset.Sequence) S) ([]S, error) {
	out := make([]S, len(ds.Sequences))
	nw := e.workers(len(ds.Sequences))
	if nw <= 1 {
		w, err := newWorker()
		if err != nil {
			return nil, err
		}
		for si := range ds.Sequences {
			out[si] = fn(w, &ds.Sequences[si])
		}
		return out, nil
	}

	// Build every worker up front so a factory error surfaces before
	// any work is spent.
	workers := make([]W, nw)
	for i := range workers {
		w, err := newWorker()
		if err != nil {
			return nil, err
		}
		workers[i] = w
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func(w W) {
			defer wg.Done()
			for si := range jobs {
				out[si] = fn(w, &ds.Sequences[si])
			}
		}(workers[i])
	}
	for si := range ds.Sequences {
		jobs <- si
	}
	close(jobs)
	wg.Wait()
	return out, nil
}

// seqShard is one sequence's share of a RunResult.
type seqShard struct {
	frames   [][]geom.Scored
	nFrames  int
	ops      core.OpsBreakdown
	sumProps float64
	sumCover float64
}

// runSequence resets the system for the sequence and steps every frame,
// accumulating the shard. This is the unit of work of both the serial
// and the parallel runner.
func runSequence(sys core.System, seq *dataset.Sequence) seqShard {
	sh := seqShard{frames: make([][]geom.Scored, len(seq.Frames))}
	sys.Reset(seq)
	for fi := range seq.Frames {
		out := sys.Step(detector.FrameOf(seq, fi))
		sh.frames[fi] = out.Detections
		sh.ops.Add(out.Ops)
		sh.nFrames++
		sh.sumProps += float64(out.NumProposals)
		sh.sumCover += out.Coverage
	}
	return sh
}

// mergeShards folds per-sequence shards, in dataset order, into one
// RunResult. The fold order is fixed by the dataset, not by worker
// scheduling, which makes the merge deterministic.
func mergeShards(sysName string, ds *dataset.Dataset, shards []seqShard) *RunResult {
	res := &RunResult{
		SystemName: sysName,
		Dataset:    ds.Name,
		Detections: metricsDetections(ds, shards),
	}
	sumProps, sumCover := 0.0, 0.0
	for si := range shards {
		res.TotalOps.Add(shards[si].ops)
		res.Frames += shards[si].nFrames
		sumProps += shards[si].sumProps
		sumCover += shards[si].sumCover
	}
	if res.Frames > 0 {
		res.AvgProposals = sumProps / float64(res.Frames)
		res.AvgCoverage = sumCover / float64(res.Frames)
	}
	return res
}

func metricsDetections(ds *dataset.Dataset, shards []seqShard) metrics.Detections {
	dets := make(metrics.Detections, len(shards))
	for si := range shards {
		dets[ds.Sequences[si].ID] = shards[si].frames
	}
	return dets
}

// RunFactory executes the system built by factory over every sequence
// of the dataset, sharded across this engine's worker pool. Each worker
// owns a private system instance; per-sequence results are merged in
// dataset order, so the output is byte-identical for any worker count.
func (e Engine) RunFactory(factory SystemFactory, ds *dataset.Dataset) (*RunResult, error) {
	// One probe instance names the result and validates the factory
	// before the pool spins up; it doubles as the first worker.
	probe, err := factory()
	if err != nil {
		return nil, err
	}
	first := true
	shards, err := mapSequences(e, ds, func() (core.System, error) {
		if first {
			first = false
			return probe, nil
		}
		return factory()
	}, runSequence)
	if err != nil {
		return nil, err
	}
	return mergeShards(probe.Name(), ds, shards), nil
}

// Run builds the spec against the dataset's classes and executes it on
// this engine's worker pool.
func (e Engine) Run(spec SystemSpec, ds *dataset.Dataset) (*RunResult, error) {
	return e.RunFactory(func() (core.System, error) { return spec.Build(ds.Classes) }, ds)
}

// MustRun is Run for static specs; it panics on build errors.
func (e Engine) MustRun(spec SystemSpec, ds *dataset.Dataset) *RunResult {
	r, err := e.Run(spec, ds)
	if err != nil {
		panic(err)
	}
	return r
}
