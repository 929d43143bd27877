// Package tracker implements CaTDet's SORT-inspired tracker (Section
// 4.1): per-class Hungarian association on negative-IoU costs, an
// exponential-decay motion model (Eq. 1-3) in place of SORT's Kalman
// filter, an adaptive match/miss confidence scheme for track retention,
// and prediction filtering tuned to minimize the refinement network's
// workload. A Kalman-filter motion model is included for the ablation
// benches.
//
// Unlike a typical tracking system, the tracker's *output* here is the
// predicted next-frame locations — the regions of interest handed to the
// refinement network — not tracklets.
package tracker

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/hungarian"
)

// MotionModel selects the state-update rule.
type MotionModel int

// Motion models. ExponentialDecay is the paper's choice; Kalman is the
// SORT original, kept for the ablation study.
const (
	ExponentialDecay MotionModel = iota
	Kalman
)

// Config holds the tracker hyper-parameters. The defaults are the
// paper's published settings.
type Config struct {
	// Eta is the exponential-decay coefficient of Eq. 1. The paper sets
	// 0.7 and notes robustness to a wide range.
	Eta float64

	// IoUThreshold is beta: association pairs with IoU <= beta are
	// non-relevant regardless of the Hungarian solution. The paper uses 0.
	IoUThreshold float64

	// Confidence scheme: a new track starts at InitialConfidence; every
	// match adds 1 up to MaxConfidence; every miss subtracts 1; the
	// track is discarded when confidence drops below zero.
	InitialConfidence int
	MaxConfidence     int

	// Prediction filters (Section 4.1): predictions narrower than
	// MinPredWidth pixels, or with less than MinVisibleFrac of their
	// area inside the frame, are not forwarded to the refinement net.
	MinPredWidth   float64
	MinVisibleFrac float64

	// PerClass associates detections class-by-class (the paper's rule).
	// Setting it false merges all classes into one assignment problem
	// (ablation).
	PerClass bool

	// Motion selects the state-update rule.
	Motion MotionModel

	// Kalman noise parameters (used only with Motion == Kalman).
	KalmanProcessNoise     float64
	KalmanMeasurementNoise float64
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		Eta:                    0.7,
		IoUThreshold:           0,
		InitialConfidence:      1,
		MaxConfidence:          3,
		MinPredWidth:           10,
		MinVisibleFrac:         0.5,
		PerClass:               true,
		Motion:                 ExponentialDecay,
		KalmanProcessNoise:     1.0,
		KalmanMeasurementNoise: 1.0,
	}
}

// Track is the internal state of one tracked object: position vector
// x = [x, y, s] (center and width), velocity, aspect ratio r, and the
// adaptive confidence counter.
type Track struct {
	ID    int
	Class int

	X, Y, S    float64 // state x (center, width)
	VX, VY, VS float64 // state x-dot
	R          float64 // aspect (height / width)

	Confidence int
	Age        int // frames since creation
	Matches    int // total matched frames
	Misses     int // consecutive missed frames

	// Kalman covariance diagonals (position, velocity) per dimension;
	// used only under the Kalman motion model.
	pvar, vvar float64
}

// PredictedBox returns the track's predicted location for the next
// frame: x' = x + x-dot, r' = r (Eq. 2-3).
func (t *Track) PredictedBox() geom.Box {
	w := t.S + t.VS
	if w < 0 {
		w = 0
	}
	return geom.NewBoxCenter(t.X+t.VX, t.Y+t.VY, w, w*t.R)
}

// Tracker carries the live tracks for one video sequence. A Tracker
// owns per-frame scratch buffers, so one instance must not be observed
// from multiple goroutines concurrently.
type Tracker struct {
	cfg    Config
	frameW float64
	frameH float64
	tracks []*Track
	nextID int
	// free holds discarded tracks for later spawns to reuse, so a warm
	// tracker allocates no Track; live plus free never exceeds the
	// peak live count.
	free []*Track

	// Per-frame scratch, reused across Observe calls so the
	// steady-state association path allocates nothing: the assignment
	// solver workspace, the flat cost matrix, candidate index lists,
	// match flags and the per-frame class list.
	scratch struct {
		solver                   hungarian.Solver
		cost                     []float64
		ti, di                   []int
		matchedTrack, matchedDet []bool
		classes                  []int
	}
}

// New creates a tracker for a frameW-by-frameH video.
func New(cfg Config, frameW, frameH float64) *Tracker {
	t := new(Tracker)
	t.Reset(cfg, frameW, frameH)
	return t
}

// Reset readies the tracker for a new frameW-by-frameH video under cfg
// (call between sequences): it discards all tracks, keeping them for
// reuse by later spawns, and keeps its scratch buffers.
func (t *Tracker) Reset(cfg Config, frameW, frameH float64) {
	t.cfg, t.frameW, t.frameH = cfg, frameW, frameH
	t.free = append(t.free, t.tracks...)
	t.tracks = t.tracks[:0]
	t.nextID = 1
}

// Tracks exposes the live tracks (read-only use expected). A track
// discarded by Observe or Reset is reused by a later spawn, so a *Track
// is valid only while the track is live.
func (t *Tracker) Tracks() []*Track { return t.tracks }

// Observe ingests the current frame's detections: it associates them
// with the tracks' predictions, updates matched tracks, coasts missed
// tracks, spawns emerging ones and discards tracks whose confidence
// falls below zero.
//
//detlint:allocfree
func (t *Tracker) Observe(dets []geom.Scored) {
	matchedTrack := resetBools(&t.scratch.matchedTrack, len(t.tracks))
	matchedDet := resetBools(&t.scratch.matchedDet, len(dets))

	if t.cfg.PerClass {
		// Classes participate independently — a class's assignment only
		// touches that class's tracks and detections — so the iteration
		// order across classes cannot change the outcome. Sorted unique
		// classes in a reused buffer replace the former per-frame map.
		classes := t.scratch.classes[:0]
		for _, tr := range t.tracks {
			classes = append(classes, tr.Class)
		}
		for _, d := range dets {
			classes = append(classes, d.Class)
		}
		sort.Ints(classes)
		t.scratch.classes = classes
		for i, c := range classes {
			if i > 0 && classes[i-1] == c {
				continue
			}
			t.associate(dets, matchedTrack, matchedDet, &c)
		}
	} else {
		t.associate(dets, matchedTrack, matchedDet, nil)
	}

	// Missed tracks: keep motion constant (coast along the prediction)
	// and decay confidence.
	kept := t.tracks[:0]
	for i, tr := range t.tracks {
		tr.Age++
		if !matchedTrack[i] {
			tr.Misses++
			tr.Confidence--
			if tr.Confidence < 0 {
				//detlint:ok the free list grows only past its peak length, bounded by the peak live count
				t.free = append(t.free, tr)
				continue
			}
			// Coast: adopt the prediction as the new state; velocity
			// unchanged ("the motion is kept constant").
			tr.X += tr.VX
			tr.Y += tr.VY
			if tr.S+tr.VS > 0 {
				tr.S += tr.VS
			}
		}
		kept = append(kept, tr)
	}
	t.tracks = kept

	// Emerging objects: unmatched detections start new tracks with zero
	// motion.
	for j, d := range dets {
		if matchedDet[j] {
			continue
		}
		w := d.Box.Width()
		if w <= 0 {
			continue
		}
		cx, cy := d.Box.Center()
		var tr *Track
		if n := len(t.free); n > 0 {
			tr, t.free = t.free[n-1], t.free[:n-1]
		} else {
			//detlint:ok a spawn allocates only when no discarded track is free to reuse
			tr = new(Track)
		}
		*tr = Track{
			ID: t.nextID, Class: d.Class,
			X: cx, Y: cy, S: w, R: d.Box.AspectRatio(),
			Confidence: t.cfg.InitialConfidence,
			pvar:       t.cfg.KalmanMeasurementNoise,
			vvar:       10 * t.cfg.KalmanProcessNoise,
		}
		//detlint:ok track-list growth happens only when a track spawns, which is itself cold
		t.tracks = append(t.tracks, tr)
		t.nextID++
	}
}

// associate runs one Hungarian assignment between track predictions and
// detections. If class is non-nil only that class participates. The
// candidate index lists, the flat cost matrix and the solver workspace
// are all reused scratch.
//
//detlint:allocfree
func (t *Tracker) associate(dets []geom.Scored, matchedTrack, matchedDet []bool, class *int) {
	ti, di := t.scratch.ti[:0], t.scratch.di[:0]
	for i, tr := range t.tracks {
		if !matchedTrack[i] && (class == nil || tr.Class == *class) {
			ti = append(ti, i)
		}
	}
	for j, d := range dets {
		if !matchedDet[j] && (class == nil || d.Class == *class) {
			di = append(di, j)
		}
	}
	t.scratch.ti, t.scratch.di = ti, di
	if len(ti) == 0 || len(di) == 0 {
		return
	}
	if cap(t.scratch.cost) < len(ti)*len(di) {
		t.scratch.cost = make([]float64, len(ti)*len(di))
	}
	cost := t.scratch.cost[:len(ti)*len(di)]
	for a, i := range ti {
		pred := t.tracks[i].PredictedBox()
		row := cost[a*len(di):]
		for b, j := range di {
			iou := geom.IoU(pred, dets[j].Box)
			if iou <= t.cfg.IoUThreshold {
				row[b] = hungarian.Disallowed
			} else {
				row[b] = -iou
			}
		}
	}
	assign := t.scratch.solver.Solve(cost, len(ti), len(di))
	for a, b := range assign {
		if b < 0 {
			continue
		}
		i, j := ti[a], di[b]
		t.update(t.tracks[i], dets[j])
		matchedTrack[i] = true
		matchedDet[j] = true
	}
}

// resetBools resizes *buf to n false entries, reusing its backing array.
//
//detlint:allocfree
func resetBools(buf *[]bool, n int) []bool {
	b := *buf
	if cap(b) < n {
		b = make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	*buf = b
	return b
}

// update applies the motion model to a matched track.
func (t *Tracker) update(tr *Track, d geom.Scored) {
	cx, cy := d.Box.Center()
	w := d.Box.Width()
	switch t.cfg.Motion {
	case Kalman:
		t.kalmanUpdate(tr, cx, cy, w)
	default:
		// Exponential decay, Eq. 1: x-dot' = eta*x-dot + (1-eta)*(x_new - x_old).
		eta := t.cfg.Eta
		tr.VX = eta*tr.VX + (1-eta)*(cx-tr.X)
		tr.VY = eta*tr.VY + (1-eta)*(cy-tr.Y)
		tr.VS = eta*tr.VS + (1-eta)*(w-tr.S)
		tr.X, tr.Y, tr.S = cx, cy, w
	}
	tr.R = d.Box.AspectRatio()
	tr.Matches++
	tr.Misses = 0
	tr.Confidence++
	if tr.Confidence > t.cfg.MaxConfidence {
		tr.Confidence = t.cfg.MaxConfidence
	}
}

// kalmanUpdate runs one predict+correct cycle of a constant-velocity
// Kalman filter, applied independently per dimension of [x, y, s] with
// shared scalar covariances — the SORT-style alternative the paper
// replaced with exponential decay.
func (t *Tracker) kalmanUpdate(tr *Track, cx, cy, w float64) {
	q := t.cfg.KalmanProcessNoise
	r := t.cfg.KalmanMeasurementNoise

	// Predict step: state advances by velocity; covariances grow.
	px, py, ps := tr.X+tr.VX, tr.Y+tr.VY, tr.S+tr.VS
	pvar := tr.pvar + tr.vvar + q
	vvar := tr.vvar + q

	// Correct step (position measurement).
	k := pvar / (pvar + r)
	tr.X = px + k*(cx-px)
	tr.Y = py + k*(cy-py)
	tr.S = ps + k*(w-ps)
	tr.pvar = (1 - k) * pvar

	// Velocity pseudo-measurement from innovation.
	kv := vvar / (vvar + r)
	tr.VX += kv * (cx - px)
	tr.VY += kv * (cy - py)
	tr.VS += kv * (w - ps)
	tr.vvar = (1 - kv) * vvar
}

// PredictAppend appends the tracks' predicted next-frame locations to
// dst after the workload filters of Section 4.1: too-narrow predictions
// and predictions largely chopped by the frame boundary are dropped.
// The Score carries the track confidence normalized to [0, 1]. It
// returns the extended slice, allocating only when dst lacks capacity.
//
//detlint:allocfree
func (t *Tracker) PredictAppend(dst []geom.Scored) []geom.Scored {
	frame := geom.NewBox(0, 0, t.frameW, t.frameH)
	out := dst
	for _, tr := range t.tracks {
		b := tr.PredictedBox()
		if b.Width() < t.cfg.MinPredWidth {
			continue
		}
		if geom.CoverFraction(b, frame) < t.cfg.MinVisibleFrac {
			continue
		}
		score := float64(tr.Confidence) / float64(t.cfg.MaxConfidence)
		if score > 1 {
			score = 1
		}
		//detlint:ok appends into the caller's reused buffer; grows only when dst lacks capacity, per the documented contract
		out = append(out, geom.Scored{Box: b, Score: score, Class: tr.Class})
	}
	return out
}
