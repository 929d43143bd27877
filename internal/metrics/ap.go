package metrics

import (
	"math"
	"slices"

	"repro/internal/dataset"
)

// prPoint is one operating point of a precision/recall curve.
type prPoint struct {
	Threshold float64
	Precision float64
	Recall    float64
}

// classIndex is one class's records as the scores of its true and of
// its false positives, each sorted ascending. AP, the Eq. 5 threshold
// and the Figure 7 curve walk its distinct scores upward with a cursor
// and read the counts at or above each: counts at score boundaries
// only, so how equal scores were ordered cannot change them.
type classIndex struct {
	tp, fp []float64
	numGT  int
}

// newClassIndex sorts tp and fp in place and indexes them.
func newClassIndex(tp, fp []float64, numGT int) classIndex {
	slices.Sort(tp)
	slices.Sort(fp)
	return classIndex{tp: tp, fp: fp, numGT: numGT}
}

// empty reports whether the class has no records.
func (ci *classIndex) empty() bool { return len(ci.tp)+len(ci.fp) == 0 }

// precision is the precision of tp true and fp false positives: 1.0
// when there are none.
func precision(tp, fp int) float64 {
	if tp+fp == 0 {
		return 1
	}
	return float64(tp) / float64(tp+fp)
}

// cursor walks a class's distinct scores upward from the lowest.
type cursor struct {
	ci   *classIndex
	i, j int // records below the current score: ci.tp[:i], ci.fp[:j]
}

// done reports whether every score has been passed.
func (c *cursor) done() bool { return c.i == len(c.ci.tp) && c.j == len(c.ci.fp) }

// score returns the lowest score not yet passed; the cursor must not be
// done.
func (c *cursor) score() float64 {
	switch {
	case c.i == len(c.ci.tp):
		return c.ci.fp[c.j]
	case c.j == len(c.ci.fp):
		return c.ci.tp[c.i]
	}
	return math.Min(c.ci.tp[c.i], c.ci.fp[c.j])
}

// counts returns the true and false positives not yet passed: those
// scoring at or above any threshold in (the last passed score, score()].
func (c *cursor) counts() (tp, fp int) { return len(c.ci.tp) - c.i, len(c.ci.fp) - c.j }

// pass moves the cursor past every record scoring <= s.
func (c *cursor) pass(s float64) {
	for c.i < len(c.ci.tp) && c.ci.tp[c.i] <= s {
		c.i++
	}
	for c.j < len(c.ci.fp) && c.ci.fp[c.j] <= s {
		c.j++
	}
}

// point returns the curve point at the cursor's score.
func (c *cursor) point() prPoint {
	tp, fp := c.counts()
	return prPoint{
		Threshold: c.score(),
		Precision: precision(tp, fp),
		Recall:    float64(tp) / float64(c.ci.numGT),
	}
}

// curve returns the precision/recall curve, one point per distinct
// score in descending-score (increasing-recall) order; nil without
// records or ground truth.
func (ci *classIndex) curve() []prPoint {
	if ci.empty() || ci.numGT == 0 {
		return nil
	}
	var out []prPoint
	for c := (cursor{ci: ci}); !c.done(); c.pass(c.score()) {
		out = append(out, c.point())
	}
	slices.Reverse(out)
	return out
}

// ap returns the 11-point interpolated average precision (Pascal VOC
// 2007 protocol, which KITTI's metric follows): the mean over recall
// targets {0, 0.1, ..., 1.0} of the maximum precision at recall >= the
// target. Walking the scores upward visits the curve in falling
// recall, so one walk keeps the running maximum precision and settles
// each target as recall drops below it.
func (ci *classIndex) ap() float64 {
	if ci.empty() || ci.numGT == 0 {
		return 0
	}
	var best [11]float64
	run, k := 0.0, 10
	for c := (cursor{ci: ci}); !c.done(); c.pass(c.score()) {
		p := c.point()
		for ; k >= 0 && p.Recall < float64(k)/10; k-- {
			best[k] = run
		}
		if p.Precision > run {
			run = p.Precision
		}
	}
	for ; k >= 0; k-- {
		best[k] = run
	}
	sum := 0.0
	for _, b := range best {
		sum += b
	}
	return sum / 11
}

// MAP evaluates the dataset at a difficulty and returns the mean AP over
// classes plus the per-class values.
func MAP(ds *dataset.Dataset, dets Detections, diff dataset.Difficulty) (float64, map[dataset.Class]float64) {
	return evaluate(ds, dets, diff).MAP()
}
