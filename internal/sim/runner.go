// Package sim is the experiment harness: it runs a detection System over
// a dataset, collects detections and operation counts, evaluates the
// paper's metrics, and formats the rows of every table and figure in the
// evaluation section.
package sim

import (
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/ops"
)

// RunResult is the raw outcome of running one system over one dataset.
type RunResult struct {
	SystemName string
	Dataset    string

	// Detections per sequence per frame, ready for the metrics layer.
	Detections metrics.Detections

	// Frames is the number of frames processed.
	Frames int

	// TotalOps accumulates the operation breakdown over all frames.
	TotalOps core.OpsBreakdown

	// Mean per-frame statistics.
	AvgProposals float64
	AvgCoverage  float64
}

// AvgOps returns the per-frame mean operation breakdown.
func (r *RunResult) AvgOps() core.OpsBreakdown {
	return r.TotalOps.Scale(float64(r.Frames))
}

// AvgGops returns the per-frame mean total in Gops, the unit of the
// paper's tables.
func (r *RunResult) AvgGops() float64 {
	return ops.Gops(r.AvgOps().Total())
}

// Run executes the system over every sequence of the dataset, resetting
// per-sequence state in between (tracker state never crosses clips).
// It is the one-worker Engine.RunFactory over this one system, so the
// serial and the parallel paths agree bit for bit.
func Run(sys core.System, ds *dataset.Dataset) *RunResult {
	r, _ := Engine{Workers: 1}.RunFactory(func() (core.System, error) { return sys, nil }, ds) // the factory cannot fail
	return r
}

// Evaluation bundles the metric outcomes the tables report.
type Evaluation struct {
	MAP        float64
	PerClassAP map[dataset.Class]float64

	// MeanDelay is mD@Beta; NaN when the dataset cannot support delay
	// measurement (sparse labels, Section 7.1).
	MeanDelay     float64
	PerClassDelay map[dataset.Class]float64
	Threshold     float64
	Beta          float64
}

// Evaluate computes mAP and (for densely labeled datasets) mD@beta for a
// run at the given difficulty. Sequences are matched on the zero
// Engine's pool, GOMAXPROCS workers, and folded in dataset order, so
// the result is the same for every worker count.
func Evaluate(ds *dataset.Dataset, r *RunResult, diff dataset.Difficulty, beta float64) Evaluation {
	return Engine{}.evaluate(ds, r, diff, beta)
}

// evaluate is Evaluate on this engine's worker pool.
func (e Engine) evaluate(ds *dataset.Dataset, r *RunResult, diff dataset.Difficulty, beta float64) Evaluation {
	scores := e.score(ds, r.Detections, diff)
	ev := Evaluation{Beta: beta}
	ev.MAP, ev.PerClassAP = scores.MAP()
	if ds.NumLabeledFrames() == ds.NumFrames() && ds.NumFrames() > 0 {
		ev.Threshold = scores.Threshold(beta)
		ev.MeanDelay, ev.PerClassDelay = scores.MeanDelay(ev.Threshold)
	} else {
		ev.MeanDelay = math.NaN()
	}
	return ev
}

// score matches every sequence's detections on this engine's worker
// pool, one metrics.Matcher per worker, and folds the per-sequence
// shards in dataset order.
func (e Engine) score(ds *dataset.Dataset, dets metrics.Detections, diff dataset.Difficulty) *metrics.Evaluation {
	shards, _ := mapSequences(e, ds, // the worker constructor cannot fail
		func() (*metrics.Matcher, error) { return new(metrics.Matcher), nil },
		func(m *metrics.Matcher, seq *dataset.Sequence) metrics.Shard {
			return m.Sequence(seq, dets[seq.ID], ds.Classes, diff)
		})
	return metrics.Fold(ds.Classes, shards)
}
