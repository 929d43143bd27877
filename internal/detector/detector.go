package detector

import (
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/ops"
)

// MinCoverage is the fraction of an object's box that must lie inside the
// selected regions for a region-restricted detector to be able to see it.
const MinCoverage = 0.5

// NMSIoU is the suppression threshold detectors apply to their raw
// output, the standard Faster R-CNN value.
const NMSIoU = 0.5

// Frame is the detector-facing view of one video frame: identity for the
// deterministic randomness plus the oracle ground truth.
type Frame struct {
	SeqID  string
	Index  int
	Width  int
	Height int
	// Objects is the frame's ground truth; the simulated detector
	// perceives (a noisy subset of) it.
	Objects []dataset.Object
}

// FrameOf is the detector input for frame i of seq.
func FrameOf(seq *dataset.Sequence, i int) Frame {
	return Frame{SeqID: seq.ID, Index: i, Width: seq.Width, Height: seq.Height, Objects: seq.Frames[i].Objects}
}

// Detection extends a scored box with the ground-truth track that
// produced it (TrackID < 0 for false positives). The track identity is
// simulation metadata — the evaluation layer never reads it, but tests
// use it to verify detector behaviour directly.
type Detection struct {
	geom.Scored
	TrackID int
}

// Result is the output of one detector invocation.
type Result struct {
	// Detections after NMS, sorted by descending confidence.
	Detections []Detection
	// Ops is the arithmetic cost of the invocation, in raw operations.
	Ops float64
	// Coverage is the fraction of the frame processed (1 for full).
	Coverage float64
	// NumProposals is the per-RoI head invocation count charged.
	NumProposals int
}

// Detector pairs an accuracy profile with a cost model.
//
// A Detector carries per-invocation scratch buffers, so one instance
// must not be invoked from multiple goroutines concurrently; build one
// instance per worker (sim.SystemFactory does exactly that). The
// scratch and the Profile are per instance; Cost is not: New hands
// every detector of a zoo name the same read-only ops model, which is
// safe to price from any number of goroutines and must not be mutated.
// A pass keeps its survivors in the scratch; DetectFull and
// DetectRegions copy them out fresh, DetectAppend into a caller buffer.
type Detector struct {
	Profile Profile
	Cost    ops.CostModel
	// Classes restricts the labels of clutter false positives; nil means
	// every known class. Set it to the dataset's vocabulary so Person-only
	// datasets do not receive Car clutter.
	Classes []dataset.Class

	// Per-invocation scratch, reused across frames: the raw candidates
	// of the last pass, which NMS reads directly, their ground-truth
	// track IDs (ids[i] is raw[i]'s), and the NMS workspace, which owns
	// the survivors' indices into raw.
	scratch struct {
		raw []geom.Scored
		ids []int
		nms geom.NMSBuffer
	}

	// seq caches the hash state and log-midpoint of the last (profile,
	// sequence) pair perceived, keyed on both names and the midpoint
	// because Profile is exported and may be replaced between passes.
	seq struct {
		set      bool
		name, id string
		midpoint float64
		key      uint64
		logMid   float64
	}
}

// DetectFull runs the detector over the whole frame, the single-model
// and proposal-network mode. The returned Detections are the caller's
// to keep.
func (d *Detector) DetectFull(f Frame) Result {
	return d.detect(f, nil, 0)
}

// DetectRegions runs the detector restricted to the masked regions with
// nProposals per-RoI head invocations, the refinement-network mode of
// Section 4.3. Objects insufficiently covered by the mask cannot be
// detected; false positives only arise inside the covered area. The
// returned Detections are the caller's to keep.
func (d *Detector) DetectRegions(f Frame, mask *geom.Mask, nProposals int) Result {
	return d.detect(f, mask, nProposals)
}

// DetectAppend runs the pass DetectFull (mask == nil; nProposals is
// then ignored) or DetectRegions would, and appends the Scored views of
// its detections scoring at or above minScore to dst, in the same
// descending-confidence order. The returned Result carries the pass's
// cost and nil Detections. Nothing appended aliases the detector, so a
// caller reusing dst across frames allocates only when dst grows.
//
//detlint:allocfree
func (d *Detector) DetectAppend(dst []geom.Scored, minScore float64, f Frame, mask *geom.Mask, nProposals int) ([]geom.Scored, Result) {
	kept := d.perceive(f, mask, nProposals)
	raw := d.scratch.raw
	for _, i := range kept {
		if raw[i].Score >= minScore {
			//detlint:ok appends into the caller's reused buffer; grows only when dst lacks capacity, per the documented contract
			dst = append(dst, raw[i])
		}
	}
	return dst, d.cost(f, mask, nProposals)
}

// detect runs one pass and copies its survivors into a fresh Detections
// slice of exactly their count (nil when none survive).
func (d *Detector) detect(f Frame, mask *geom.Mask, nProposals int) Result {
	kept := d.perceive(f, mask, nProposals)
	r := d.cost(f, mask, nProposals)
	if len(kept) > 0 {
		r.Detections = make([]Detection, len(kept))
		for k, i := range kept {
			r.Detections[k] = Detection{Scored: d.scratch.raw[i], TrackID: d.scratch.ids[i]}
		}
	}
	return r
}

// cost prices one pass; mask == nil is the full frame.
func (d *Detector) cost(f Frame, mask *geom.Mask, nProposals int) Result {
	if mask == nil {
		return Result{
			Ops:          d.Cost.FullFrameOps(f.Width, f.Height),
			Coverage:     1,
			NumProposals: ops.DefaultProposals,
		}
	}
	frac := mask.CoveredFraction()
	return Result{
		Ops:          d.Cost.RegionOps(f.Width, f.Height, frac, nProposals),
		Coverage:     frac,
		NumProposals: nProposals,
	}
}

// seqState returns the (model, sequence) hash state and the log of the
// recall midpoint for f's sequence, folding them only when the profile
// or the sequence changed since the last pass.
func (d *Detector) seqState(f Frame) (key uint64, logMid float64) {
	p, c := &d.Profile, &d.seq
	if !c.set || c.name != p.Name || c.id != f.SeqID || c.midpoint != p.Midpoint {
		c.set, c.name, c.id, c.midpoint = true, p.Name, f.SeqID, p.Midpoint
		c.key = hashKey(hashString(p.Name), hashString(f.SeqID))
		c.logMid = math.Log(p.Midpoint)
	}
	return c.key, c.logMid
}

// perceive produces one pass's detections — mask == nil means full
// frame — on the detector's reused scratch and returns the NMS
// survivors as indices into d.scratch.raw and d.scratch.ids, in
// descending confidence order. All three stay valid only until the
// next pass.
func (d *Detector) perceive(f Frame, mask *geom.Mask, nProposals int) []int {
	p := d.Profile
	// hashKey folds its words left to right, so the (model, sequence)
	// and (model, sequence, frame) states are folded once and each
	// object's keys extend them with mix — bit for bit the full keys.
	seqKey, logMid := d.seqState(f)
	frameKey := mix(seqKey, uint64(f.Index))

	raw := slices.Grow(d.scratch.raw[:0], len(f.Objects)) // grow once, not by doubling
	ids := slices.Grow(d.scratch.ids[:0], len(f.Objects))
	for _, o := range f.Objects {
		if mask != nil && mask.BoxCoverage(o.Box) < MinCoverage {
			continue
		}
		id := uint64(o.TrackID)
		z := p.logitFor(o, logMid)
		z += p.TrackBias * normal(mix(mix(seqKey, id), tagBias))
		if mask != nil {
			z += p.RegionBoost
		}
		prob := p.MaxRecall * sigmoid(z)
		objKey := mix(frameKey, id)
		key := mix(objKey, tagDetect)
		if uniform(key) >= prob {
			continue
		}
		box, jitterQ := d.jitter(o, objKey)
		conf := sigmoid(p.ConfGain*z + p.ConfNoise*normal(hashKey(key, tagConf)) - p.LocConfCoupling*jitterQ)
		raw = append(raw, geom.Scored{Box: box, Score: conf, Class: int(o.Class)})
		ids = append(ids, o.TrackID)
	}

	raw, ids = d.appendClutter(raw, ids, f, mask, nProposals, frameKey)
	d.scratch.raw, d.scratch.ids = raw, ids

	// NMS over the combined output. The index-carrying variant keeps
	// track identity directly — kept[i] indexes ids too — instead of
	// the former O(kept*raw) struct-equality re-match.
	return d.scratch.nms.Indices(raw, NMSIoU)
}

// jitter perturbs the ground-truth box by the profile's localization
// noise, deterministically per (model, sequence, frame, track): objKey
// is hashKey of those four words. The second return value is the
// squared jitter magnitude normalized to mean 1, which the confidence
// model uses to score badly localized detections lower.
func (d *Detector) jitter(o dataset.Object, objKey uint64) (geom.Box, float64) {
	p := d.Profile
	if p.LocNoise == 0 {
		return o.Box, 0
	}
	nx := normal(mix(objKey, tagLocX))
	ny := normal(mix(objKey, tagLocY))
	nw := normal(mix(objKey, tagLocW))
	nh := normal(mix(objKey, tagLocH))
	w, h := o.Box.Width(), o.Box.Height()
	cx, cy := o.Box.Center()
	cx += p.LocNoise * w * nx
	cy += p.LocNoise * h * ny
	sw := math.Exp(p.LocNoise * nw)
	sh := math.Exp(p.LocNoise * nh)
	q := (nx*nx + ny*ny + nw*nw + nh*nh) / 4
	return geom.NewBoxCenter(cx, cy, w*sw, h*sh), q
}

// appendClutter appends the frame's false positives to dst, and their
// track ID -1 to ids, and returns both extended slices. The count is
// Poisson with mean FPRate scaled by the covered fraction; locations
// are sampled deterministically and, in region mode, kept only when
// they fall inside the mask (with resampling).
func (d *Detector) appendClutter(dst []geom.Scored, ids []int, f Frame, mask *geom.Mask, nProposals int, frameKey uint64) ([]geom.Scored, []int) {
	p := d.Profile
	rate := p.FPRate
	if mask != nil {
		rate = rate*mask.CoveredFraction() + p.RegionFPPerProposal*float64(nProposals)
	}
	n := poissonHash(hashKey(frameKey, tagFP), rate)
	fw, fh := float64(f.Width), float64(f.Height)
	for i := 0; i < n; i++ {
		var box geom.Box
		placed := false
		for attempt := 0; attempt < 8; attempt++ {
			k := hashKey(frameKey, tagFP, uint64(i), uint64(attempt))
			w := 10 + 35*uniform(mix(k, 1))
			h := w * (0.6 + 1.8*uniform(mix(k, 2)))
			cx := fw * uniform(mix(k, 3))
			cy := fh * uniform(mix(k, 4))
			box = geom.NewBoxCenter(cx, cy, w, h).Clip(fw, fh)
			if box.Empty() {
				continue
			}
			if mask == nil || mask.BoxCoverage(box) >= MinCoverage {
				placed = true
				break
			}
		}
		if !placed {
			continue
		}
		k := hashKey(frameKey, tagFP, uint64(i), tagConf)
		conf := sigmoid(p.FPConfCenter + p.ConfNoise*normal(k))
		var class int
		if len(d.Classes) > 0 {
			class = int(d.Classes[uint(mix(k, 5))%uint(len(d.Classes))])
		} else {
			class = int(uint(mix(k, 5)) % uint(dataset.NumClasses))
		}
		dst = append(dst, geom.Scored{Box: box, Score: conf, Class: class})
		ids = append(ids, -1)
	}
	return dst, ids
}

// poissonHash draws a Poisson variate from hashed uniforms (Knuth).
func poissonHash(key uint64, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	prod := 1.0
	for i := uint64(0); ; i++ {
		prod *= uniform(mix(key, i+1))
		if prod <= l {
			return k
		}
		k++
		if k > 1000 {
			return k // lambda is tiny in practice; guard regardless
		}
	}
}
