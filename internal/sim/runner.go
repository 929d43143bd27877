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
// It is the serial path of the sharded engine: each sequence is
// accumulated into its own shard and the shards are merged in dataset
// order, exactly as Engine.RunFactory does, so the two agree bit for bit.
func Run(sys core.System, ds *dataset.Dataset) *RunResult {
	shards := make([]seqShard, len(ds.Sequences))
	for si := range ds.Sequences {
		shards[si] = runSequence(sys, &ds.Sequences[si])
	}
	return mergeShards(sys.Name(), ds, shards)
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
// run at the given difficulty.
func Evaluate(ds *dataset.Dataset, r *RunResult, diff dataset.Difficulty, beta float64) Evaluation {
	ev := Evaluation{Beta: beta}
	ev.MAP, ev.PerClassAP = metrics.MAP(ds, r.Detections, diff)
	if ds.NumLabeledFrames() == ds.NumFrames() && ds.NumFrames() > 0 {
		ev.MeanDelay, ev.PerClassDelay, ev.Threshold = metrics.MeanDelayAtPrecision(ds, r.Detections, diff, beta)
	} else {
		ev.MeanDelay = math.NaN()
	}
	return ev
}
