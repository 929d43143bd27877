package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

// randRecords builds a random pooled record set. At most NumGT records
// are true positives, the physical constraint the matcher guarantees.
func randRecords(rng *rand.Rand) *classRecords {
	n := 1 + rng.Intn(50)
	r := &classRecords{Class: dataset.Car, NumGT: 1 + rng.Intn(40)}
	tps := 0
	for i := 0; i < n; i++ {
		isTP := rng.Float64() < 0.6 && tps < r.NumGT
		if isTP {
			tps++
		}
		r.Records = append(r.Records, record{Score: rng.Float64(), TP: isTP})
	}
	return r
}

// Property: AP is always within [0, 1].
func TestAPBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := randRecords(rand.New(rand.NewSource(seed)))
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
		r := randRecords(rand.New(rand.NewSource(seed)))
		prev := -1.0
		for _, p := range r.prCurve() {
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
		r := randRecords(rand.New(rand.NewSource(seed)))
		prevRecall := math.Inf(1)
		for _, th := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
			_, rec := r.precisionRecallAt(th)
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
		r := randRecords(rng)
		base := r.ap()
		withFP := &classRecords{Class: r.Class, NumGT: r.NumGT,
			Records: append(append([]record{}, r.Records...), record{Score: rng.Float64(), TP: false})}
		if withFP.ap() > base+1e-9 {
			return false
		}
		// Count TPs to respect NumGT.
		tp := 0
		for _, rec := range r.Records {
			if rec.TP {
				tp++
			}
		}
		if tp >= r.NumGT {
			return true
		}
		withTP := &classRecords{Class: r.Class, NumGT: r.NumGT,
			Records: append(append([]record{}, r.Records...), record{Score: rng.Float64(), TP: true})}
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
