package geom

// Scored pairs a box with a confidence score and a class label, the unit
// of data flowing between detector stages. Class is an opaque small-int
// label owned by the dataset layer.
type Scored struct {
	Box   Box
	Score float64
	Class int
}

// NMSBuffer holds reusable scratch for allocation-free non-maximum
// suppression. The zero value is ready to use; a buffer is not safe for
// concurrent use.
type NMSBuffer struct {
	order []int
	kept  []int
}

// Indices performs class-aware non-maximum suppression: within each
// class, boxes are visited in descending score order (ties keep input
// order) and a box is suppressed if its IoU with an already-kept box of
// the same class exceeds iouThresh. It returns the kept detections as
// indices into dets, in that order. The returned slice is owned by the
// buffer and valid until its next call; it aliases no caller memory, so
// the input is never modified. Steady-state calls allocate nothing.
//
//detlint:allocfree
func (b *NMSBuffer) Indices(dets []Scored, iouThresh float64) []int {
	if len(dets) == 0 {
		return nil
	}
	if cap(b.order) < len(dets) {
		b.order = make([]int, len(dets))
	}
	order := b.order[:len(dets)]
	for i := range order {
		order[i] = i
	}
	// Stable insertion sort by descending score: identical permutation
	// to sort.SliceStable without its closure/swapper allocations.
	// Per-frame detection sets are small, so quadratic worst case is a
	// non-issue and the nearly-sorted common case is linear.
	for i := 1; i < len(order); i++ {
		j := i
		for j > 0 && dets[order[j]].Score > dets[order[j-1]].Score {
			order[j], order[j-1] = order[j-1], order[j]
			j--
		}
	}
	kept := b.kept[:0]
	for _, i := range order {
		d := dets[i]
		suppressed := false
		for _, k := range kept {
			if dets[k].Class == d.Class && IoU(dets[k].Box, d.Box) > iouThresh {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, i)
		}
	}
	b.kept = kept
	return kept
}

// FilterScoreAppend appends the detections whose score is >= thresh to
// dst, preserving order, and returns the extended slice. The input is
// not modified; a caller that reuses dst across frames allocates
// nothing.
//
//detlint:allocfree
func FilterScoreAppend(dst []Scored, dets []Scored, thresh float64) []Scored {
	for _, d := range dets {
		if d.Score >= thresh {
			//detlint:ok appends into the caller's reused buffer; grows only when dst lacks capacity, per the documented contract
			dst = append(dst, d)
		}
	}
	return dst
}
