// Package metrics implements the paper's two evaluation metrics: mean
// Average Precision (VOC 11-point protocol with KITTI difficulty
// filtering and per-class IoU thresholds) and mean Delay mD@beta
// (Section 5, Eq. 4-5), plus the precision/recall/delay curves of
// Figure 7.
//
// One greedy matcher feeds all of them. A Matcher scores one sequence
// at a time into a Shard: each class's (score, TP) records, kept as the
// scores of its true and of its false positives, its ground-truth
// count, and the sequence's ground-truth tracks with the best matched
// score in each frame. Fold concatenates shards in dataset order into
// an Evaluation, which sorts each class's records once and derives AP,
// the Eq. 5 threshold, the mean delay and the Figure 7 curves from the
// same per-class index. Shards are independent, so
// callers may score sequences in parallel; folding in dataset order
// keeps every result bit-identical to a serial pass.
package metrics

import (
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// Detections holds a system's output for a dataset: for each sequence ID,
// one detection list per frame (indexed like Sequence.Frames).
type Detections map[string][][]geom.Scored

// Shard is one sequence's share of an evaluation: the scores of each
// class's true and false positives, in the order of the classes it was
// scored with, its ground-truth count, and the sequence's ground-truth
// tracks in first-appearance order.
type Shard struct {
	tp, fp [][]float64
	numGT  []int
	tracks []TrackObservation
}

// Matcher is the per-frame greedy matcher. It keeps its scratch
// buffers between frames and sequences, so a warm Matcher matches a
// frame without allocating. The zero value is ready to use; a Matcher
// must not be shared between goroutines.
type Matcher struct {
	thresh   []float64   // per-class IoU threshold
	tp, fp   [][]float64 // per-class record scores of the sequence
	slot     map[int]int32
	tracks   []TrackObservation
	objSlot  []int32 // per object of the sequence's labeled frames: its track
	objElig  []bool  // per object: passes the difficulty filter
	eligible []int32 // per frame and class: eligible object indices
	ignored  []int32 // per frame and class: don't-care object indices
	dets     []geom.Scored
	matched  []bool
}

// Sequence scores one sequence at the difficulty with each class's
// KITTI IoU threshold (Class.MatchIoU). frames holds the sequence's
// detections, indexed like seq.Frames; it may be shorter, or nil when
// the system produced nothing for the sequence. Only labeled frames
// contribute. A first walk over the labeled frames lays out the tracks
// (first eligible and last frame, so each track's per-frame scores get
// their exact span of one per-sequence arena); the second walk matches
// the frames.
func (m *Matcher) Sequence(seq *dataset.Sequence, frames [][]geom.Scored, classes []dataset.Class, diff dataset.Difficulty) Shard {
	m.thresh = m.thresh[:0]
	for _, c := range classes {
		m.thresh = append(m.thresh, c.MatchIoU())
	}
	if m.slot == nil {
		m.slot = map[int]int32{}
	}
	clear(m.slot)
	m.tracks, m.objSlot, m.objElig = m.tracks[:0], m.objSlot[:0], m.objElig[:0]
	for fi := range seq.Frames {
		fr := &seq.Frames[fi]
		if !fr.Labeled {
			continue
		}
		for oi := range fr.Objects {
			o := &fr.Objects[oi]
			s, ok := m.slot[o.TrackID]
			if !ok {
				s = int32(len(m.tracks))
				m.slot[o.TrackID] = s
				m.tracks = append(m.tracks, TrackObservation{
					SeqID: seq.ID, TrackID: o.TrackID, Class: o.Class, FirstEligible: -1,
				})
			}
			tr := &m.tracks[s]
			tr.LastFrame = fi
			elig := diff.Eligible(*o)
			if tr.FirstEligible < 0 && elig {
				tr.FirstEligible = fi
			}
			m.objSlot = append(m.objSlot, s)
			m.objElig = append(m.objElig, elig)
		}
	}

	sh := Shard{tracks: slices.Clone(m.tracks), numGT: make([]int, len(classes))}
	span := 0
	for i := range sh.tracks {
		if tr := &sh.tracks[i]; tr.FirstEligible >= 0 {
			span += tr.LastFrame - tr.FirstEligible + 1
		}
	}
	arena := make([]float64, span)
	for i := range arena {
		arena[i] = math.NaN()
	}
	for i := range sh.tracks {
		if tr := &sh.tracks[i]; tr.FirstEligible >= 0 {
			n := tr.LastFrame - tr.FirstEligible + 1
			tr.FrameScores, arena = arena[:n:n], arena[n:]
		}
	}

	for len(m.tp) < len(classes) {
		m.tp, m.fp = append(m.tp, nil), append(m.fp, nil)
	}
	for ci := range classes {
		m.tp[ci], m.fp[ci] = m.tp[ci][:0], m.fp[ci][:0]
	}
	obj := 0
	for fi := range seq.Frames {
		fr := &seq.Frames[fi]
		if !fr.Labeled {
			continue
		}
		n := len(fr.Objects)
		m.frame(fr.Objects, m.objSlot[obj:obj+n], m.objElig[obj:obj+n], frameDets(frames, fi), classes, diff, fi, &sh)
		obj += n
	}
	sh.tp, sh.fp = make([][]float64, len(classes)), make([][]float64, len(classes))
	for ci := range classes {
		sh.tp[ci], sh.fp[ci] = slices.Clone(m.tp[ci]), slices.Clone(m.fp[ci])
	}
	return sh
}

// frameDets returns frame fi's detections, nil past the end of frames.
func frameDets(frames [][]geom.Scored, fi int) []geom.Scored {
	if fi < len(frames) {
		return frames[fi]
	}
	return nil
}

// classPos returns c's index in classes, or -1.
func classPos(classes []dataset.Class, c dataset.Class) int {
	for i, k := range classes {
		if k == c {
			return i
		}
	}
	return -1
}

// byScoreDesc orders detections by descending score. The stable sort
// keeps equal scores in output order, the tie rule of the greedy match.
func byScoreDesc(a, b geom.Scored) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	}
	return 0
}

// frame matches one labeled frame for every class following the KITTI
// protocol:
//
//   - ground truth of the class failing the difficulty filter is "don't
//     care": it is never a false negative, and detections overlapping it
//     (IoU at least half the threshold) are dropped rather than counted
//     as false positives;
//   - detections are matched greedily in descending score order to the
//     best-IoU unmatched eligible ground truth, requiring the class IoU
//     threshold (0.7 Car / 0.5 Pedestrian under KITTI);
//   - unmatched detections shorter than the difficulty's minimum height
//     are ignored, as in the official development kit.
//
// Each surviving detection records its score as a true or a false
// positive of its class. A true positive also raises its track's best
// score in this frame: eligibility is per frame, so an object failing
// the filter now cannot be "detected" yet, matching the delay metric's
// definition over evaluated ground truth. slots and elig give each
// object's track and eligibility.
//
//detlint:allocfree
func (m *Matcher) frame(objects []dataset.Object, slots []int32, elig []bool, dets []geom.Scored,
	classes []dataset.Class, diff dataset.Difficulty, fi int, sh *Shard) {
	minHeight := diff.MinHeight()
	for ci, c := range classes {
		eligible, ignored := m.eligible[:0], m.ignored[:0]
		for oi := range objects {
			if objects[oi].Class != c {
				continue
			}
			if elig[oi] {
				eligible = append(eligible, int32(oi))
			} else {
				ignored = append(ignored, int32(oi))
			}
		}
		m.eligible, m.ignored = eligible, ignored
		sh.numGT[ci] += len(eligible)

		cls := m.dets[:0]
		for _, d := range dets {
			if d.Class == int(c) {
				cls = append(cls, d)
			}
		}
		m.dets = cls
		if len(cls) == 0 {
			continue
		}
		slices.SortStableFunc(cls, byScoreDesc)

		matched := m.matched[:0]
		for range eligible {
			matched = append(matched, false)
		}
		m.matched = matched

		thresh := m.thresh[ci]
		for _, d := range cls {
			best, bestIoU := -1, 0.0
			for i, oi := range eligible {
				if matched[i] {
					continue
				}
				if iou := geom.IoU(d.Box, objects[oi].Box); iou > bestIoU {
					best, bestIoU = i, iou
				}
			}
			if best >= 0 && bestIoU >= thresh {
				matched[best] = true
				//detlint:ok per-class scratch keeps its capacity across sequences; it grows only while the Matcher warms up
				m.tp[ci] = append(m.tp[ci], d.Score)
				tr := &sh.tracks[slots[eligible[best]]]
				if k := fi - tr.FirstEligible; math.IsNaN(tr.FrameScores[k]) || d.Score > tr.FrameScores[k] {
					tr.FrameScores[k] = d.Score
				}
				continue
			}
			if dontCare(d.Box, objects, ignored, thresh/2) || d.Box.Height() < minHeight {
				continue
			}
			//detlint:ok per-class scratch keeps its capacity across sequences; it grows only while the Matcher warms up
			m.fp[ci] = append(m.fp[ci], d.Score)
		}
	}
}

// dontCare reports whether box overlaps one of the ignored objects by
// at least thresh IoU.
func dontCare(box geom.Box, objects []dataset.Object, ignored []int32, thresh float64) bool {
	for _, oi := range ignored {
		if geom.IoU(box, objects[oi].Box) >= thresh {
			return true
		}
	}
	return false
}

// evaluate scores every sequence of the dataset on one Matcher and
// folds the shards: the serial path behind the package-level metrics.
func evaluate(ds *dataset.Dataset, dets Detections, diff dataset.Difficulty) *Evaluation {
	var m Matcher
	shards := make([]Shard, len(ds.Sequences))
	for si := range ds.Sequences {
		seq := &ds.Sequences[si]
		shards[si] = m.Sequence(seq, dets[seq.ID], ds.Classes, diff)
	}
	return Fold(ds.Classes, shards)
}
