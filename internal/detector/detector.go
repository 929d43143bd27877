package detector

import (
	"math"

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
type Detector struct {
	Profile Profile
	Cost    ops.CostModel
	// Classes restricts the labels of clutter false positives; nil means
	// every known class. Set it to the dataset's vocabulary so Person-only
	// datasets do not receive Car clutter.
	Classes []dataset.Class

	// Per-invocation scratch, reused across frames so the steady-state
	// perceive path allocates only its returned Detections slice.
	scratch struct {
		raw    []Detection
		scored []geom.Scored
		nms    geom.NMSBuffer
	}
}

// DetectFull runs the detector over the whole frame, the single-model
// and proposal-network mode.
func (d *Detector) DetectFull(f Frame) Result {
	dets := d.perceive(f, nil, 0)
	return Result{
		Detections:   dets,
		Ops:          d.Cost.FullFrameOps(f.Width, f.Height),
		Coverage:     1,
		NumProposals: ops.DefaultProposals,
	}
}

// DetectRegions runs the detector restricted to the masked regions with
// nProposals per-RoI head invocations, the refinement-network mode of
// Section 4.3. Objects insufficiently covered by the mask cannot be
// detected; false positives only arise inside the covered area.
func (d *Detector) DetectRegions(f Frame, mask *geom.Mask, nProposals int) Result {
	dets := d.perceive(f, mask, nProposals)
	frac := mask.CoveredFraction()
	return Result{
		Detections:   dets,
		Ops:          d.Cost.RegionOps(f.Width, f.Height, frac, nProposals),
		Coverage:     frac,
		NumProposals: nProposals,
	}
}

// perceive produces the raw detections. mask == nil means full frame.
// Candidate accumulation, NMS ordering and suppression all run on the
// detector's reused scratch; only the returned slice — which callers
// own and may retain — is allocated fresh, at its exact final size.
func (d *Detector) perceive(f Frame, mask *geom.Mask, nProposals int) []Detection {
	p := d.Profile
	// hashKey folds its words left to right, so the (model, sequence)
	// and (model, sequence, frame) states are folded once here and each
	// object's keys extend them with mix — bit for bit the full keys.
	seqKey := hashKey(hashString(p.Name), hashString(f.SeqID))
	frameKey := mix(seqKey, uint64(f.Index))
	logMid := math.Log(p.Midpoint)

	raw := d.scratch.raw[:0]
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
		raw = append(raw, Detection{
			Scored:  geom.Scored{Box: box, Score: conf, Class: int(o.Class)},
			TrackID: o.TrackID,
		})
	}

	raw = d.appendFalsePositives(raw, f, mask, nProposals, frameKey)
	d.scratch.raw = raw

	// NMS over the combined output. The index-carrying variant keeps
	// track identity directly — kept[i] indexes raw — instead of the
	// former O(kept*raw) struct-equality re-match.
	if cap(d.scratch.scored) < len(raw) {
		d.scratch.scored = make([]geom.Scored, len(raw))
	}
	scored := d.scratch.scored[:len(raw)]
	for i, r := range raw {
		scored[i] = r.Scored
	}
	kept := d.scratch.nms.Indices(scored, NMSIoU)
	if len(kept) == 0 {
		return nil
	}
	out := make([]Detection, len(kept))
	for k, i := range kept {
		out[k] = raw[i]
	}
	return out
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

// appendFalsePositives appends the frame's clutter detections to dst
// and returns the extended slice. The count is Poisson with mean FPRate
// scaled by the covered fraction; locations are sampled
// deterministically and, in region mode, kept only when they fall
// inside the mask (with resampling).
func (d *Detector) appendFalsePositives(dst []Detection, f Frame, mask *geom.Mask, nProposals int, frameKey uint64) []Detection {
	p := d.Profile
	rate := p.FPRate
	if mask != nil {
		rate = rate*mask.CoveredFraction() + p.RegionFPPerProposal*float64(nProposals)
	}
	n := poissonHash(hashKey(frameKey, tagFP), rate)
	out := dst
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
		out = append(out, Detection{
			Scored:  geom.Scored{Box: box, Score: conf, Class: class},
			TrackID: -1,
		})
	}
	return out
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
