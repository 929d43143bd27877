package sim

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/tracker"
)

// AblationRow reports one design variant of the CaTDet system.
type AblationRow struct {
	Variant string
	MAPHard float64
	MD08    float64
	Gops    float64
}

// Ablations evaluates the tracker's design choices, all on
// the (Res10a, Res50) CaTDet system, on this engine's worker pool:
//
//   - exponential-decay motion model (the paper's choice) vs SORT's
//     Kalman filter;
//   - adaptive match/miss confidence vs fixed-age track retention;
//   - prediction workload filters (min width, boundary chop) on vs off;
//   - per-class vs class-agnostic association.
func (e Engine) Ablations(ds *dataset.Dataset) []AblationRow {
	variant := func(name string, mutate func(*tracker.Config)) AblationRow {
		tcfg := tracker.DefaultConfig()
		if mutate != nil {
			mutate(&tcfg)
		}
		cfg := core.DefaultConfig()
		cfg.Tracker = &tcfg
		r := e.MustRun(SystemSpec{Kind: CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: cfg}, ds)
		ev := e.evaluate(ds, r, dataset.Hard, Beta)
		return AblationRow{Variant: name, MAPHard: ev.MAP, MD08: ev.MeanDelay, Gops: r.AvgGops()}
	}
	return []AblationRow{
		variant("baseline (paper settings)", nil),
		variant("kalman motion model", func(c *tracker.Config) { c.Motion = tracker.Kalman }),
		variant("fixed-age retention", func(c *tracker.Config) { c.InitialConfidence = c.MaxConfidence }),
		variant("no prediction filters", func(c *tracker.Config) { c.MinPredWidth = 0; c.MinVisibleFrac = 0 }),
		variant("class-agnostic association", func(c *tracker.Config) { c.PerClass = false }),
	}
}

// WriteAblations renders the ablation table.
func WriteAblations(w io.Writer, rows []AblationRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Variant\tmAP(Hard)\tmD@0.8\tops(G)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%s\t%.1f\n", r.Variant, r.MAPHard, fmtDelay(r.MD08), r.Gops)
	}
	tw.Flush()
}
