package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

// randIndex builds a random class index. At most numGT records are
// true positives, the physical constraint the matcher guarantees.
func randIndex(rng *rand.Rand) classIndex {
	n := 1 + rng.Intn(50)
	numGT := 1 + rng.Intn(40)
	var tp, fp []float64
	for i := 0; i < n; i++ {
		isTP := rng.Float64() < 0.6 && len(tp) < numGT
		if isTP {
			tp = append(tp, rng.Float64())
		} else {
			fp = append(fp, rng.Float64())
		}
	}
	return newClassIndex(tp, fp, numGT)
}

// precisionRecallAt returns the operating point at a score threshold:
// precision and recall over the true- and false-positive scores >= t.
func precisionRecallAt(tpScores, fpScores []float64, numGT int, t float64) (precision, recall float64) {
	tp, fp := 0, 0
	for _, s := range tpScores {
		if s >= t {
			tp++
		}
	}
	for _, s := range fpScores {
		if s >= t {
			fp++
		}
	}
	if tp+fp == 0 {
		return 1, 0 // no detections above t: vacuous precision
	}
	if numGT == 0 {
		return float64(tp) / float64(tp+fp), 0
	}
	return float64(tp) / float64(tp+fp), float64(tp) / float64(numGT)
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

// Property: AP is always within [0, 1].
func TestAPBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := randIndex(rand.New(rand.NewSource(seed)))
		ap := r.ap()
		return ap >= 0 && ap <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the PR curve's recall is non-decreasing and bounded by 1;
// precision stays in [0, 1] (0 is reachable when the top-scored
// records are false positives).
func TestPRCurveBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := randIndex(rand.New(rand.NewSource(seed)))
		prev := -1.0
		for _, p := range r.curve() {
			if p.Recall < prev || p.Recall > 1+1e-9 {
				return false
			}
			if p.Precision < 0 || p.Precision > 1 {
				return false
			}
			prev = p.Recall
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: precision and recall at a threshold agree with the curve's
// index-based computation, and recall at threshold is non-increasing in
// the threshold.
func TestPrecisionRecallMonotoneRecall(t *testing.T) {
	f := func(seed int64) bool {
		r := randIndex(rand.New(rand.NewSource(seed)))
		for _, p := range r.curve() {
			if prec, rec := precisionRecallAt(r.tp, r.fp, r.numGT, p.Threshold); prec != p.Precision || rec != p.Recall {
				return false
			}
		}
		prevRecall := math.Inf(1)
		for _, th := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
			_, rec := precisionRecallAt(r.tp, r.fp, r.numGT, th)
			if rec > prevRecall+1e-9 {
				return false
			}
			prevRecall = rec
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a false positive never raises AP; adding a true
// positive never lowers it (with NumGT held fixed... a TP reduces FNs
// so AP must not decrease).
func TestAPMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randIndex(rng)
		base := r.ap()
		withFP := newClassIndex(slices.Clone(r.tp), append(slices.Clone(r.fp), rng.Float64()), r.numGT)
		if withFP.ap() > base+1e-9 {
			return false
		}
		// Respect numGT: a TP is only possible while one is unmatched.
		if len(r.tp) >= r.numGT {
			return true
		}
		withTP := newClassIndex(append(slices.Clone(r.tp), rng.Float64()), slices.Clone(r.fp), r.numGT)
		return withTP.ap() >= base-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: DelayAt is non-decreasing in the threshold (a stricter
// threshold can only delay the first detection).
func TestDelayMonotoneInThreshold(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &TrackObservation{
			Class: dataset.Car, FirstEligible: 0, LastFrame: 20,
			FrameScores: make([]float64, 21),
		}
		for fi := range tr.FrameScores {
			tr.FrameScores[fi] = math.NaN()
			if rng.Float64() < 0.5 {
				tr.FrameScores[fi] = rng.Float64()
			}
		}
		prev := -1.0
		for _, th := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
			d := tr.DelayAt(th)
			if d < prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
