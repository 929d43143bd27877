package metrics

import (
	"math"

	"repro/internal/dataset"
)

// TrackObservation summarizes one ground-truth track for the delay
// metric: when its delay clock starts, when it ends, and the score of
// the best matching detection in each frame of its evaluated life.
type TrackObservation struct {
	SeqID   string
	TrackID int
	Class   dataset.Class

	// FirstEligible is the first frame index at which the track passes
	// the difficulty filter; -1 when it never does (excluded from
	// evaluation).
	FirstEligible int
	// LastFrame is the last frame the track appears in.
	LastFrame int

	// FrameScores[i] is the best matching detection score in frame
	// FirstEligible+i, NaN when no detection matched the track there.
	// Frames past the end of the slice had no match either.
	FrameScores []float64
}

// DelayAt returns the track's entry delay at detection threshold t: the
// number of frames from FirstEligible to the first frame with a
// matching detection of score >= t. Tracks never detected are charged
// their full remaining lifetime (LastFrame - FirstEligible + 1) — the
// paper does not specify the never-detected case; this choice penalizes
// permanent misses instead of dropping them from the mean.
func (tr *TrackObservation) DelayAt(t float64) float64 {
	for i, s := range tr.FrameScores {
		if s >= t {
			return float64(i)
		}
	}
	return float64(tr.LastFrame - tr.FirstEligible + 1)
}

// Evaluation is a dataset's matched detections at one difficulty: each
// class's records sorted once into an index, and every ground-truth
// track in dataset order. AP, the Eq. 5 threshold, the mean delay and
// the Figure 7 curves are all read from it.
type Evaluation struct {
	classes []dataset.Class
	index   []classIndex // per class, in classes order
	tracks  []TrackObservation
}

// Fold concatenates per-sequence shards, in the order given (dataset
// order), into an Evaluation. Every shard must have been scored with
// the same classes, in the same order. Per-class sums and the track
// order depend only on the shard order, never on how the shards were
// produced, so a parallel scoring folds to the serial result bit for
// bit.
func Fold(classes []dataset.Class, shards []Shard) *Evaluation {
	ev := &Evaluation{classes: classes, index: make([]classIndex, len(classes))}
	for ci := range classes {
		var ntp, nfp, numGT int
		for si := range shards {
			ntp += len(shards[si].tp[ci])
			nfp += len(shards[si].fp[ci])
			numGT += shards[si].numGT[ci]
		}
		tp, fp := make([]float64, 0, ntp), make([]float64, 0, nfp)
		for si := range shards {
			tp = append(tp, shards[si].tp[ci]...)
			fp = append(fp, shards[si].fp[ci]...)
		}
		ev.index[ci] = newClassIndex(tp, fp, numGT)
	}
	n := 0
	for si := range shards {
		n += len(shards[si].tracks)
	}
	ev.tracks = make([]TrackObservation, 0, n)
	for si := range shards {
		ev.tracks = append(ev.tracks, shards[si].tracks...)
	}
	return ev
}

// MAP returns the mean AP over classes plus the per-class values.
func (ev *Evaluation) MAP() (float64, map[dataset.Class]float64) {
	perClass := make(map[dataset.Class]float64, len(ev.classes))
	sum := 0.0
	for ci, c := range ev.classes {
		ap := ev.index[ci].ap()
		perClass[c] = ap
		sum += ap
	}
	if len(ev.classes) == 0 {
		return 0, perClass
	}
	return sum / float64(len(ev.classes)), perClass
}

// Threshold solves Eq. 5: the smallest threshold t at which the mean
// precision over classes reaches beta (smallest t gives the highest
// recall at that precision). When no threshold reaches beta, the
// threshold with the highest mean precision is returned; without any
// record, 1. The candidates are the distinct scores of every class,
// visited upward with one cursor per class.
func (ev *Evaluation) Threshold(beta float64) float64 {
	cur := make([]cursor, len(ev.index))
	for ci := range cur {
		cur[ci].ci = &ev.index[ci]
	}
	bestT, bestPrec := 1.0, -1.0 // every precision is >= 0: the first candidate replaces them
	for {
		t, found := 0.0, false // the lowest score no cursor has passed
		for ci := range cur {
			if !cur[ci].done() {
				if s := cur[ci].score(); !found || s < t {
					t, found = s, true
				}
			}
		}
		if !found {
			return bestT
		}
		sum := 0.0
		for ci := range cur {
			sum += precision(cur[ci].counts())
		}
		p := sum / float64(len(cur))
		if p >= beta {
			return t
		}
		if p > bestPrec {
			bestPrec, bestT = p, t
		}
		for ci := range cur {
			cur[ci].pass(t)
		}
	}
}

// MeanDelay averages DelayAt(t) per class over the evaluable tracks
// (those that ever pass the difficulty filter), then over the classes
// that have any; NaN when none do.
func (ev *Evaluation) MeanDelay(t float64) (float64, map[dataset.Class]float64) {
	sums := make([]float64, len(ev.classes))
	counts := make([]int, len(ev.classes))
	for i := range ev.tracks {
		tr := &ev.tracks[i]
		if tr.FirstEligible < 0 {
			continue
		}
		if ci := classPos(ev.classes, tr.Class); ci >= 0 {
			sums[ci] += tr.DelayAt(t)
			counts[ci]++
		}
	}
	perClass := map[dataset.Class]float64{}
	total, n := 0.0, 0
	for ci, c := range ev.classes {
		if counts[ci] == 0 {
			continue
		}
		perClass[c] = sums[ci] / float64(counts[ci])
		total += perClass[c]
		n++
	}
	if n == 0 {
		return math.NaN(), perClass
	}
	return total / float64(n), perClass
}

// MeanDelayAtPrecision computes mD@beta (Eq. 4-5): the detection
// threshold is chosen so the mean precision over classes equals beta,
// then per-class mean entry delays are averaged. It returns the mean
// delay, the per-class delays and the chosen threshold.
func MeanDelayAtPrecision(ds *dataset.Dataset, dets Detections, diff dataset.Difficulty, beta float64) (float64, map[dataset.Class]float64, float64) {
	ev := evaluate(ds, dets, diff)
	t := ev.Threshold(beta)
	mean, perClass := ev.MeanDelay(t)
	return mean, perClass, t
}
