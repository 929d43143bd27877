package metrics

import "repro/internal/dataset"

// CurvePoint is one operating point of the Figure 7 visualization: how
// recall and delay trade against precision for a single class.
type CurvePoint struct {
	Precision float64
	Recall    float64
	Delay     float64
	Threshold float64
}

// Curve reproduces Figure 7 for one class: for each precision target,
// the smallest threshold achieving (at least) that class precision is
// located, and recall and mean entry delay are evaluated there. Targets
// a class precision, not the cross-class mean, matching the per-class
// panels of the figure. Targets no threshold reaches are skipped; a
// class without records yields nil.
func (ev *Evaluation) Curve(class dataset.Class, precisionTargets []float64) []CurvePoint {
	ci := classPos(ev.classes, class)
	if ci < 0 || ev.index[ci].empty() {
		return nil
	}
	idx := &ev.index[ci]
	var out []CurvePoint
	for _, target := range precisionTargets {
		c := cursor{ci: idx}
		for !c.done() && precision(c.counts()) < target {
			c.pass(c.score())
		}
		if c.done() {
			continue
		}
		t := c.score()
		delaySum, tracks := 0.0, 0
		for i := range ev.tracks {
			if tr := &ev.tracks[i]; tr.Class == class && tr.FirstEligible >= 0 {
				delaySum += tr.DelayAt(t)
				tracks++
			}
		}
		delay := 0.0
		if tracks > 0 {
			delay = delaySum / float64(tracks)
		}
		tp, fp := c.counts()
		recall := 0.0
		if idx.numGT > 0 {
			recall = float64(tp) / float64(idx.numGT)
		}
		out = append(out, CurvePoint{Precision: precision(tp, fp), Recall: recall, Delay: delay, Threshold: t})
	}
	return out
}
