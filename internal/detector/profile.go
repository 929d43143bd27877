// Package detector simulates trained object detectors at the
// bounding-box level. A Profile encodes a model's quality — its
// size-dependent recall curve, localization noise, confidence behaviour
// and false-positive process — and a Detector combines a profile with an
// operation cost model from internal/ops. Detection outcomes are
// deterministic functions of (model, sequence, frame, object), see
// hash.go.
//
// Profiles in the zoo are calibrated so each model's *single-model* mAP
// and delay land near the paper's Table 4/5 anchors; everything the
// paper claims about cascades and tracking is then measured, not
// scripted.
package detector

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/ops"
)

// Profile is the accuracy model of one trained detector.
type Profile struct {
	// Name must match an internal/ops zoo model name.
	Name string

	// Recall curve: the probability of detecting a fully-visible object
	// is MaxRecall * sigmoid((ln h - ln Midpoint) / Slope) where h is
	// the box height in pixels.
	Midpoint  float64
	Slope     float64
	MaxRecall float64

	// Logit penalties for degraded visibility.
	OccPenalty   [3]float64 // indexed by KITTI occlusion level
	TruncPenalty float64    // multiplied by the truncation fraction

	// TrackBias is the std of a per-(model, sequence, track) persistent
	// logit offset: weak models miss some tracks systematically, which
	// is why a cascade without temporal feedback cannot recover recall
	// by lowering thresholds (paper Section 6.4, Figure 6).
	TrackBias float64

	// LocNoise is the relative localization jitter (std, fraction of
	// box size). Large values push detections below the class IoU
	// threshold, costing both a false positive and a false negative.
	LocNoise float64

	// Confidence model: TP confidence = sigmoid(ConfGain*z + noise -
	// LocConfCoupling*q), where z is the detection logit margin and q is
	// the squared localization-jitter magnitude (mean 1); FP confidence
	// = sigmoid(FPConfCenter + noise). ConfNoise is the noise std.
	//
	// The coupling term models a real property of detection heads:
	// badly localized boxes score lower. It makes precision rise with
	// the threshold even when localization failures (IoU below the
	// class threshold) are the dominant error source, so the
	// precision-matched delay metric stays well defined for weak models.
	ConfGain        float64
	ConfNoise       float64
	LocConfCoupling float64
	FPConfCenter    float64

	// FPRate is the expected number of spurious detections per frame
	// over the full frame (scaled by covered area in region mode).
	FPRate float64

	// RegionFPPerProposal adds false-positive mass per forwarded
	// proposal in region mode: candidate regions are preselected to
	// look object-like, so the refinement head's FP density inside them
	// exceeds the full-frame average.
	RegionFPPerProposal float64

	// RegionBoost is a small logit bonus applied when the detector runs
	// on proposed regions instead of the whole image: the head sees
	// better-localized candidates than its own RPN would supply. This
	// reproduces the paper's observation that CaTDet(R) slightly
	// surpasses the same model run alone (Table 5).
	RegionBoost float64
}

// Validate checks the profile parameters are usable.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("detector: profile missing name")
	}
	if p.Midpoint <= 0 || p.Slope <= 0 {
		return fmt.Errorf("detector: profile %s: midpoint/slope must be positive", p.Name)
	}
	if p.MaxRecall <= 0 || p.MaxRecall > 1 {
		return fmt.Errorf("detector: profile %s: MaxRecall %v outside (0,1]", p.Name, p.MaxRecall)
	}
	if p.LocNoise < 0 || p.FPRate < 0 || p.ConfNoise < 0 {
		return fmt.Errorf("detector: profile %s: negative noise/rate", p.Name)
	}
	return nil
}

// logitFor returns the detection logit margin z for a ground-truth
// object, before the track bias and region bonus; logMid is
// math.Log(p.Midpoint), taken once per frame by the caller.
func (p Profile) logitFor(o dataset.Object, logMid float64) float64 {
	h := o.Box.Height()
	if h < 1 {
		h = 1
	}
	z := (math.Log(h) - logMid) / p.Slope
	z -= p.OccPenalty[clampOcc(o.Occlusion)]
	z -= p.TruncPenalty * o.Truncation
	return z
}

func clampOcc(l int) int {
	if l < 0 {
		return 0
	}
	if l > 2 {
		return 2
	}
	return l
}

// zoo holds the calibrated profiles. Tuned against the KITTI-sim world
// (seed 1) to land near the paper's single-model anchors; the measured
// values regenerate with cmd/experiments (README.md, "Reproducing the
// paper's tables").
var zoo = map[string]Profile{
	"resnet50": {
		Name: "resnet50", Midpoint: 17, Slope: 0.32, MaxRecall: 0.985,
		OccPenalty: [3]float64{0, 1.5, 3.5}, TruncPenalty: 2.0,
		TrackBias: 0.45, LocNoise: 0.046,
		ConfGain: 0.72, ConfNoise: 1.0, LocConfCoupling: 0.6, FPConfCenter: -0.8,
		FPRate: 3.3, RegionFPPerProposal: 0.12,
		RegionBoost: 0.15,
	},
	"vgg16": {
		Name: "vgg16", Midpoint: 17, Slope: 0.33, MaxRecall: 0.985,
		OccPenalty: [3]float64{0, 1.5, 3.5}, TruncPenalty: 2.0,
		TrackBias: 0.45, LocNoise: 0.047,
		ConfGain: 0.72, ConfNoise: 1.0, LocConfCoupling: 0.6, FPConfCenter: -0.85,
		FPRate: 3.1, RegionFPPerProposal: 0.12,
		RegionBoost: 0.15,
	},
	"resnet18": {
		Name: "resnet18", Midpoint: 17.5, Slope: 0.32, MaxRecall: 0.99,
		OccPenalty: [3]float64{0, 1.5, 3.5}, TruncPenalty: 2.0,
		TrackBias: 0.50, LocNoise: 0.054,
		ConfGain: 0.62, ConfNoise: 1.05, LocConfCoupling: 0.7, FPConfCenter: -0.6,
		FPRate: 3.5, RegionFPPerProposal: 0.12,
		RegionBoost: 0.15,
	},
	"resnet10a": {
		Name: "resnet10a", Midpoint: 18, Slope: 0.32, MaxRecall: 0.99,
		OccPenalty: [3]float64{0, 1.6, 3.5}, TruncPenalty: 2.1,
		TrackBias: 0.50, LocNoise: 0.068,
		ConfGain: 0.55, ConfNoise: 1.1, LocConfCoupling: 0.8, FPConfCenter: -0.5,
		FPRate: 4.0, RegionFPPerProposal: 0.10,
		RegionBoost: 0.15,
	},
	"resnet10b": {
		Name: "resnet10b", Midpoint: 18.5, Slope: 0.33, MaxRecall: 0.985,
		OccPenalty: [3]float64{0, 1.6, 3.5}, TruncPenalty: 2.1,
		TrackBias: 0.55, LocNoise: 0.075,
		ConfGain: 0.50, ConfNoise: 1.15, LocConfCoupling: 0.85, FPConfCenter: -0.45,
		FPRate: 4.0, RegionFPPerProposal: 0.10,
		RegionBoost: 0.15,
	},
	"resnet10c": {
		Name: "resnet10c", Midpoint: 19, Slope: 0.34, MaxRecall: 0.98,
		OccPenalty: [3]float64{0, 1.7, 3.6}, TruncPenalty: 2.2,
		TrackBias: 0.55, LocNoise: 0.078,
		ConfGain: 0.48, ConfNoise: 1.2, LocConfCoupling: 0.9, FPConfCenter: -0.4,
		FPRate: 4.0, RegionFPPerProposal: 0.10,
		RegionBoost: 0.15,
	},
	"retinanet-res50": {
		// Appendix II: slightly lower mAP than Faster R-CNN Res50 and a
		// notably worse delay (Table 8 vs Table 2): the one-shot
		// detector is slower to pick up small new objects.
		Name: "retinanet-res50", Midpoint: 18, Slope: 0.34, MaxRecall: 0.98,
		OccPenalty: [3]float64{0, 1.5, 3.5}, TruncPenalty: 2.0,
		TrackBias: 0.50, LocNoise: 0.052,
		ConfGain: 0.58, ConfNoise: 1.0, LocConfCoupling: 0.65, FPConfCenter: -0.7,
		FPRate: 3.0, RegionFPPerProposal: 0.12,
		RegionBoost: 0.15,
	},
}

// ProfileFor returns the calibrated profile for a zoo model name.
func ProfileFor(name string) (Profile, error) {
	p, ok := zoo[name]
	if !ok {
		return Profile{}, fmt.Errorf("detector: unknown profile %q", name)
	}
	return p, nil
}

// ScaleNoise returns a copy of the profile with every noise channel —
// confidence noise, localization jitter, false-positive rate and the
// persistent per-track bias — multiplied by k. It models the same
// trained network watching a degraded input distribution (low light,
// rain, motion blur): the recall curve and confidence gain stay those
// of the model, but its mistakes grow k-fold. k <= 0 or k == 1 returns
// the profile unchanged. The Name is kept, so the deterministic
// per-(model, sequence, frame, object) randomness draws the same
// variates at scaled magnitudes — a noisier world, not a different
// one.
func (p Profile) ScaleNoise(k float64) Profile {
	if k <= 0 || k == 1 {
		return p
	}
	p.ConfNoise *= k
	p.LocNoise *= k
	p.FPRate *= k
	p.TrackBias *= k
	return p
}

// ProfileNames lists the zoo profiles in a stable order.
func ProfileNames() []string {
	return []string{"resnet50", "vgg16", "resnet18", "resnet10a", "resnet10b", "resnet10c", "retinanet-res50"}
}

// New builds a Detector from a zoo name, pairing the accuracy profile
// with its calibrated cost model, shared with every other Detector of
// that name (see ops.NewCostModel).
func New(name string) (*Detector, error) {
	p, err := ProfileFor(name)
	if err != nil {
		return nil, err
	}
	cost, err := ops.NewCostModel(name)
	if err != nil {
		return nil, err
	}
	return &Detector{Profile: p, Cost: cost}, nil
}

// MustNew is New for static names; it panics on error.
func MustNew(name string) *Detector {
	d, err := New(name)
	if err != nil {
		panic(err)
	}
	return d
}
