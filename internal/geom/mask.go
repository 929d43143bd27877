package geom

import (
	"math"
	"math/bits"
)

// Mask is a coarse occupancy grid over an image, used to represent the
// (possibly non-rectangular) union of regions of interest handed to the
// refinement network. The paper computes the real number of operations
// needed to extract features over the union of proposal regions, which
// requires area accounting that does not double-count overlapping
// proposals; a grid at feature-map granularity does exactly that.
type Mask struct {
	w, h   float64 // frame size in pixels
	cell   float64 // cell edge length in pixels
	nx, ny int     // grid dimensions
	bits   []uint64
}

// DefaultCell is the default mask granularity in pixels. It matches the
// effective stride of the conv4 feature map the FasterR-CNN head reads.
const DefaultCell = 8.0

// NewMask returns an empty mask over a w-by-h pixel frame with the given
// cell size. Cell sizes <= 0 fall back to DefaultCell.
func NewMask(w, h, cell float64) *Mask {
	if cell <= 0 {
		cell = DefaultCell
	}
	nx := int(math.Ceil(w / cell))
	ny := int(math.Ceil(h / cell))
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	words := (nx*ny + 63) / 64
	return &Mask{w: w, h: h, cell: cell, nx: nx, ny: ny, bits: make([]uint64, words)}
}

// ReuseMask returns an empty mask over a w-by-h pixel frame with the
// given cell size, recycling m's allocation when it already has exactly
// that geometry (word-zeroed via Reset) and allocating a fresh mask
// otherwise. It is the per-frame variant of NewMask for hot paths that
// rebuild a mask every step over a fixed-size frame.
func ReuseMask(m *Mask, w, h, cell float64) *Mask {
	if cell <= 0 {
		cell = DefaultCell
	}
	if m == nil || m.w != w || m.h != h || m.cell != cell {
		return NewMask(w, h, cell)
	}
	m.Reset()
	return m
}

// cellRange converts a pixel box to the clipped inclusive cell range it
// touches. ok is false when the box misses the frame entirely, when a
// coordinate is NaN, or when the box is so thin that it rounds to no
// cell at all.
//
//detlint:allocfree
func (m *Mask) cellRange(b Box) (x0, y0, x1, y1 int, ok bool) {
	b = b.Clip(m.w, m.h)
	if !(b.X1 < b.X2 && b.Y1 < b.Y2) {
		return 0, 0, 0, 0, false
	}
	x0 = int(b.X1 / m.cell)
	y0 = int(b.Y1 / m.cell)
	x1 = int(math.Ceil(b.X2/m.cell)) - 1
	y1 = int(math.Ceil(b.Y2/m.cell)) - 1
	if x1 >= m.nx {
		x1 = m.nx - 1
	}
	if y1 >= m.ny {
		y1 = m.ny - 1
	}
	return x0, y0, x1, y1, x0 <= x1 && y0 <= y1
}

// The grid is row-major, so the cells a box touches in one grid row are
// one run of contiguous bits. The span helpers below visit the run
// [lo, hi] (inclusive bit indices) a 64-bit word at a time: the first
// and last words through edge masks, the words between them whole.

// spanMasks returns the word indices of bits lo and hi and the edge
// masks selecting bits >= lo in the first word and <= hi in the last.
//
//detlint:allocfree
func spanMasks(lo, hi int) (wl, wh int, first, last uint64) {
	return lo >> 6, hi >> 6, ^uint64(0) << (uint(lo) & 63), ^uint64(0) >> (63 - uint(hi)&63)
}

// setSpan sets bits lo..hi of words.
//
//detlint:allocfree
func setSpan(words []uint64, lo, hi int) {
	wl, wh, first, last := spanMasks(lo, hi)
	if wl == wh {
		words[wl] |= first & last
		return
	}
	words[wl] |= first
	for w := wl + 1; w < wh; w++ {
		words[w] = ^uint64(0)
	}
	words[wh] |= last
}

// countSpan returns how many of bits lo..hi of words are set.
//
//detlint:allocfree
func countSpan(words []uint64, lo, hi int) int {
	wl, wh, first, last := spanMasks(lo, hi)
	if wl == wh {
		return bits.OnesCount64(words[wl] & first & last)
	}
	n := bits.OnesCount64(words[wl]&first) + bits.OnesCount64(words[wh]&last)
	for _, w := range words[wl+1 : wh] {
		n += bits.OnesCount64(w)
	}
	return n
}

// AddBox marks every cell touched by the box (clipped to the frame).
//
//detlint:allocfree
func (m *Mask) AddBox(b Box) {
	x0, y0, x1, y1, ok := m.cellRange(b)
	if !ok {
		return
	}
	for row := y0 * m.nx; row <= y1*m.nx; row += m.nx {
		setSpan(m.bits, row+x0, row+x1)
	}
}

// CoveredCells returns the number of marked cells.
func (m *Mask) CoveredCells() int {
	n := 0
	for _, w := range m.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// CoveredFraction returns the fraction of the frame area that is marked,
// in [0, 1]. This is the scale factor applied to the feature-extractor
// operation count under selected-region inference.
func (m *Mask) CoveredFraction() float64 {
	total := m.nx * m.ny
	if total == 0 {
		return 0
	}
	return float64(m.CoveredCells()) / float64(total)
}

// BoxCoverage returns the fraction of the box's cells that are marked, in
// [0, 1]. An object whose box coverage is low cannot be detected by a
// detector restricted to this mask.
//
//detlint:allocfree
func (m *Mask) BoxCoverage(b Box) float64 {
	x0, y0, x1, y1, ok := m.cellRange(b)
	if !ok {
		return 0
	}
	covered := 0
	for row := y0 * m.nx; row <= y1*m.nx; row += m.nx {
		covered += countSpan(m.bits, row+x0, row+x1)
	}
	return float64(covered) / float64((x1-x0+1)*(y1-y0+1))
}

// Reset clears all marked cells, retaining the allocation.
//
//detlint:allocfree
func (m *Mask) Reset() {
	for i := range m.bits {
		m.bits[i] = 0
	}
}
