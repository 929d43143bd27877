// Package core implements the paper's detection systems (Figure 1):
// the single-model detector and one cascade type, CaTDet — the
// proposal and refinement networks with a tracker feeding temporal
// regions of interest back into the refinement network. The two-model
// cascaded detector is the same type built without a tracker
// (NewCascaded). Each step reports its proposal / refinement operation
// split (Tables 2-3); Table 3's per-source attribution is priced from
// FrameOutput.Regions by the sim package.
package core

import (
	"math"
	"strings"

	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/tracker"
)

// Margin is the pixel margin appended around every proposal before
// feature extraction, "to maintain enough information for the ConvNet"
// (Section 4.3).
const Margin = 30

// OpsBreakdown is the per-frame arithmetic-operation accounting of
// Tables 2-3: the proposal network's full-frame pass and the refinement
// network's work inside the regions.
type OpsBreakdown struct {
	Proposal   float64
	Refinement float64
}

// Total returns the system's actual operation count for the frame.
func (b OpsBreakdown) Total() float64 { return b.Proposal + b.Refinement }

// Add accumulates another frame's breakdown.
func (b *OpsBreakdown) Add(o OpsBreakdown) {
	b.Proposal += o.Proposal
	b.Refinement += o.Refinement
}

// Scale divides the accumulated breakdown by n (e.g. to report per-frame
// averages).
func (b OpsBreakdown) Scale(n float64) OpsBreakdown {
	if n == 0 {
		return b
	}
	return OpsBreakdown{Proposal: b.Proposal / n, Refinement: b.Refinement / n}
}

// FrameOutput is one frame's detections plus cost accounting.
type FrameOutput struct {
	Detections []geom.Scored
	Ops        OpsBreakdown
	// NumProposals is the number of per-RoI head invocations charged to
	// the refinement network (0 for the single-model system).
	NumProposals int
	// Coverage is the fraction of the frame processed by the refinement
	// network (1 for the single-model system).
	Coverage float64
	// Regions are the margin-expanded boxes handed to the refinement
	// network (nil for the single-model system). The GPU timing model
	// merges these into rectangular launches.
	//
	// The proposal network's regions come first; the tracker's follow.
	//
	// Ownership: Regions aliases the System's per-frame scratch and is
	// valid only until the System's next Step. Consumers that need it
	// longer (none in this repo do) must copy. Detections is the one
	// allocation of a warm Step: an exact-size copy of the detector
	// pass that systems fill in their own scratch, safe to retain.
	Regions []geom.Box
	// ProposalRegions is how many of Regions came from the proposal
	// network; the rest came from the tracker (none without one).
	ProposalRegions int
}

// System is a causal video detector: Reset begins a sequence, Step
// consumes frames strictly in order.
type System interface {
	Name() string
	Reset(seq *dataset.Sequence)
	Step(f detector.Frame) FrameOutput
}

// ownedCopy is the exact-size copy of a pass's scratch output that
// FrameOutput.Detections hands to the caller, never nil.
func ownedCopy(dets []geom.Scored) []geom.Scored {
	out := make([]geom.Scored, len(dets))
	copy(out, dets)
	return out
}

// SingleModel runs one detector on every full frame (Figure 1a). Like
// its detector, an instance carries per-frame scratch and must not be
// stepped from multiple goroutines concurrently.
type SingleModel struct {
	Detector *detector.Detector
	name     string
	dets     []geom.Scored
}

// NewSingleModel wraps a detector as a System.
func NewSingleModel(d *detector.Detector) *SingleModel {
	family := "Faster R-CNN"
	if strings.HasPrefix(d.Profile.Name, "retinanet") {
		family = "RetinaNet"
	}
	return &SingleModel{Detector: d, name: d.Profile.Name + ", " + family}
}

// Name implements System.
func (s *SingleModel) Name() string { return s.name }

// Reset implements System; the single-model detector is stateless.
func (s *SingleModel) Reset(*dataset.Sequence) {}

// Step implements System.
func (s *SingleModel) Step(f detector.Frame) FrameOutput {
	var r detector.Result
	s.dets, r = s.Detector.DetectAppend(s.dets[:0], math.Inf(-1), f, nil, 0)
	return FrameOutput{
		Detections: ownedCopy(s.dets),
		Ops:        OpsBreakdown{Proposal: 0, Refinement: r.Ops},
		Coverage:   1,
	}
}

// Config holds the cascade hyper-parameters.
type Config struct {
	// CThresh is the proposal network's output confidence threshold;
	// proposals below it are not forwarded (Section 4.3, Figure 6).
	CThresh float64
	// TrackThresh is the confidence threshold for the tracker's input:
	// only refinement detections at or above it update the tracker.
	TrackThresh float64
	// Margin is the pixel margin around proposals; 0 means the paper's
	// default of 30.
	Margin float64
	// MaskCell overrides the region-mask granularity in pixels (0 =
	// geom.DefaultCell).
	MaskCell float64
	// Tracker configures the CaTDet tracker; nil means
	// tracker.DefaultConfig(). Unused by a system built with NewCascaded.
	Tracker *tracker.Config
}

// DefaultConfig returns the settings used for the paper's main tables.
func DefaultConfig() Config {
	return Config{CThresh: 0.1, TrackThresh: 0.25, Margin: Margin}
}

func (c Config) margin() float64 {
	if c.Margin <= 0 {
		return Margin
	}
	return c.Margin
}

// CaTDet is the full system of Figure 1c: the cascade plus a tracker
// that predicts regions of interest from historic detections. Built by
// NewCascaded it has no tracker and is the two-model cascade of
// Figure 1b. A system instance carries per-frame scratch, so it must
// not be stepped from multiple goroutines concurrently
// (sim.SystemFactory builds one instance per worker).
type CaTDet struct {
	Proposal   *detector.Detector
	Refinement *detector.Detector
	Cfg        Config
	name       string

	// tracked is false for the tracker-less cascade: Reset builds no
	// tracker and Step neither predicts nor observes.
	tracked bool
	trk     *tracker.Tracker

	// Per-frame scratch reused across Steps: the region occupancy mask
	// (word-zeroed between frames), the region list returned via
	// FrameOutput.Regions, the region candidates (thresholded proposals
	// followed by the tracker's predictions) and the refinement
	// detections, which Step copies out and then cuts down to the
	// confident ones fed back to the tracker.
	mask    *geom.Mask
	regions []geom.Box
	cands   []geom.Scored
	dets    []geom.Scored
}

// NewCaTDet builds the full CaTDet system.
func NewCaTDet(proposal, refinement *detector.Detector, cfg Config) *CaTDet {
	return &CaTDet{
		Proposal:   proposal,
		Refinement: refinement,
		Cfg:        cfg,
		name:       proposal.Profile.Name + ", " + refinement.Profile.Name + ", CaTDet",
		tracked:    true,
	}
}

// NewCascaded builds the two-model cascade (Figure 1b): CaTDet without
// the tracker, refining the proposal network's regions only.
func NewCascaded(proposal, refinement *detector.Detector, cfg Config) *CaTDet {
	return &CaTDet{
		Proposal:   proposal,
		Refinement: refinement,
		Cfg:        cfg,
		name:       proposal.Profile.Name + ", " + refinement.Profile.Name + ", Cascaded",
	}
}

// Name implements System.
func (s *CaTDet) Name() string { return s.name }

// Reset implements System: tracker state never crosses sequences, but
// one tracker, its recycled tracks and its scratch serve them all.
func (s *CaTDet) Reset(seq *dataset.Sequence) {
	if !s.tracked {
		return
	}
	cfg := tracker.DefaultConfig()
	if s.Cfg.Tracker != nil {
		cfg = *s.Cfg.Tracker
	}
	if s.trk == nil {
		s.trk = new(tracker.Tracker)
	}
	s.trk.Reset(cfg, float64(seq.Width), float64(seq.Height))
}

// Step implements System. The execution loop of Figure 2:
//
//  1. the tracker predicts current-frame locations of known objects;
//  2. the proposal network scans the full frame for new candidates;
//  3. the union of both, with margins, forms the refinement regions;
//  4. the refinement network detects inside the regions only;
//  5. its (confident) detections update the tracker for the next frame.
//
// Without a tracker, steps 1 and 5 are skipped.
func (s *CaTDet) Step(f detector.Frame) FrameOutput {
	if s.tracked && s.trk == nil {
		// Step before Reset: synthesize a tracker from frame dims.
		s.Reset(&dataset.Sequence{Width: f.Width, Height: f.Height})
	}
	// The proposal pass and the tracker's prediction read disjoint
	// state, so predicting after the pass lets both fill one buffer.
	var prop, ref detector.Result
	s.cands, prop = s.Proposal.DetectAppend(s.cands[:0], s.Cfg.CThresh, f, nil, 0)
	nProps := len(s.cands)
	if s.trk != nil {
		s.cands = s.trk.PredictAppend(s.cands)
	}

	margin := s.Cfg.margin()
	s.mask = geom.ReuseMask(s.mask, float64(f.Width), float64(f.Height), s.Cfg.MaskCell)
	mask := s.mask
	frame := geom.NewBox(0, 0, float64(f.Width), float64(f.Height))
	regions := s.regions[:0]
	for _, p := range s.cands {
		r := p.Box.Expand(margin).Intersect(frame)
		mask.AddBox(r)
		regions = append(regions, r)
	}
	s.regions = regions
	s.dets, ref = s.Refinement.DetectAppend(s.dets[:0], math.Inf(-1), f, mask, len(regions))
	dets := ownedCopy(s.dets)

	if s.trk != nil {
		// Temporal feedback: confident detections update the tracker.
		s.dets = geom.FilterScoreAppend(s.dets[:0], dets, s.Cfg.TrackThresh)
		s.trk.Observe(s.dets)
	}

	return FrameOutput{
		Detections:      dets,
		Ops:             OpsBreakdown{Proposal: prop.Ops, Refinement: ref.Ops},
		NumProposals:    len(regions),
		Coverage:        ref.Coverage,
		Regions:         regions,
		ProposalRegions: nProps,
	}
}
