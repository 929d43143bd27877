package ops

import "sync/atomic"

// NumAnchors is the RPN anchor count per feature-map location: 3 anchor
// types with 4 scales each (Section 4.2 of the paper).
const NumAnchors = 12

// DefaultProposals is the standard Faster R-CNN proposal count after NMS.
const DefaultProposals = 300

// FasterRCNN is the operation cost model of a Faster R-CNN detector. The
// total cost splits into an area-dependent part (trunk + RPN, which scan
// the image or its selected regions) and a proposal-count-dependent part
// (the per-RoI head). featScale and headScale calibrate the two parts to
// the paper's published totals; see Calibrate and zoo.go.
type FasterRCNN struct {
	Backbone     Backbone
	NumProposals int

	featScale float64
	headScale float64

	// rpn is the RPN stack built once against the backbone at
	// construction. FeatureOps sits inside per-frame (and, via region
	// merging, per-candidate-rectangle) pricing loops; rebuilding the
	// net there allocated on every call and dominated the serving heap
	// profile. Precomputed, it is read-only and safe to share across
	// the serving loop's parallel step workers.
	rpn Net
	// headOps is the uncalibrated per-RoI head cost, cached at
	// construction for the same reason: RegionOps and HeadOps walked
	// the head layer stack on every call. Calibration only rescales
	// it through headScale, so Calibrate needs no refresh.
	headOps float64
	// feat remembers the uncalibrated trunk + RPN ops of the first
	// featureMemos frame sizes FeatureOps priced. A frame is priced
	// several times per step (both detector passes, the per-source
	// split, every merged launch), each time walking the whole trunk
	// before. A slot is claimed once through featUsed, written, then
	// published through featReady and never written again, so parallel
	// step workers share the memo without locks. The slots live in the
	// struct, so remembering a size does not allocate. They hold
	// unscaled ops, so Calibrate needs no refresh either.
	feat      [featureMemos]featureMemo
	featReady [featureMemos]atomic.Bool
	featUsed  atomic.Int32
}

// featureMemos is how many frame sizes a FasterRCNN remembers. The zoo
// shares one model per name across the whole process, so the slots
// must hold its calibration anchors (two for resnet50) plus every frame
// size the registered world presets use (five distinct today); further
// sizes walk the trunk on every call, as before the memo.
const featureMemos = 8

// featureMemo is one remembered FeatureOps input and its raw result.
type featureMemo struct {
	w, h int
	raw  float64
}

// NewFasterRCNN builds an uncalibrated cost model (scales = 1) with the
// default 300-proposal configuration. The Backbone must not be mutated
// after construction (the RPN stack and the per-RoI head cost are
// derived from it here).
func NewFasterRCNN(b Backbone) *FasterRCNN {
	return &FasterRCNN{
		Backbone:     b,
		NumProposals: DefaultProposals,
		featScale:    1,
		headScale:    1,
		rpn:          rpnNet(b),
		headOps:      b.Head.Ops(b.RoISize, b.RoISize),
	}
}

// rpnNet returns the RPN stack attached to the trunk output: a 3x3 conv
// preserving channels plus 1x1 objectness and box-regression heads.
func rpnNet(b Backbone) Net {
	c := b.Trunk.OutChannels()
	return Net{Name: b.Name + ".rpn", Layers: []Layer{
		{Name: "rpn.conv", Kind: Conv, Kernel: 3, Stride: 1, InCh: c, OutCh: c},
		{Name: "rpn.cls", Kind: Conv, Kernel: 1, Stride: 1, InCh: c, OutCh: 2 * NumAnchors},
		{Name: "rpn.reg", Kind: Conv, Kernel: 1, Stride: 1, InCh: c, OutCh: 4 * NumAnchors},
	}}
}

// FeatureOps returns the area-dependent operations (trunk + RPN) for a
// full w-by-h frame, after calibration.
func (m *FasterRCNN) FeatureOps(w, h int) float64 {
	for i := range m.feat {
		if f := &m.feat[i]; m.featReady[i].Load() && f.w == w && f.h == h {
			return f.raw * m.featScale
		}
	}
	trunk := m.Backbone.Trunk.Ops(w, h)
	stride := m.Backbone.Trunk.OutputStride()
	raw := trunk + m.rpn.Ops((w+stride-1)/stride, (h+stride-1)/stride)
	if n := m.featUsed.Load(); n < featureMemos && m.featUsed.CompareAndSwap(n, n+1) {
		m.feat[n] = featureMemo{w: w, h: h, raw: raw}
		m.featReady[n].Store(true)
	}
	return raw * m.featScale
}

// HeadOpsPerProposal returns the per-RoI head cost after calibration.
func (m *FasterRCNN) HeadOpsPerProposal() float64 {
	return m.headOps * m.headScale
}

// HeadOps returns the head cost for n proposals.
func (m *FasterRCNN) HeadOps(n int) float64 {
	if n < 0 {
		n = 0
	}
	return float64(n) * m.HeadOpsPerProposal()
}

// FullFrameOps returns the operations for standard full-frame inference
// with the model's configured proposal count.
func (m *FasterRCNN) FullFrameOps(w, h int) float64 {
	return m.FeatureOps(w, h) + m.HeadOps(m.NumProposals)
}

// RegionOps returns the operations for selected-region inference: the
// trunk and RPN only compute features over the covered fraction of the
// frame, and the head runs once per supplied proposal. This is the
// refinement-network mode of Section 4.3.
func (m *FasterRCNN) RegionOps(w, h int, coveredFrac float64, nProposals int) float64 {
	if coveredFrac < 0 {
		coveredFrac = 0
	}
	if coveredFrac > 1 {
		coveredFrac = 1
	}
	return m.FeatureOps(w, h)*coveredFrac + m.HeadOps(nProposals)
}

// Calibrate fits featScale and headScale so the model's full-frame totals
// reproduce published anchors. With one anchor the two scales are set
// equal (uniform scaling); with two anchors at different resolutions the
// area-dependent and proposal-dependent parts are solved separately,
// which is possible because the head cost does not vary with resolution.
//
// Anchors are expressed in raw operations for full-frame inference at the
// model's configured proposal count.
func (m *FasterRCNN) Calibrate(anchors []OpsAnchor) {
	m.featScale, m.headScale = 1, 1
	switch len(anchors) {
	case 0:
		return
	case 1:
		a := anchors[0]
		analytic := m.FullFrameOps(a.W, a.H)
		if analytic > 0 {
			s := a.Ops / analytic
			m.featScale, m.headScale = s, s
		}
	default:
		a, b := anchors[0], anchors[1]
		fa := m.FeatureOps(a.W, a.H)
		fb := m.FeatureOps(b.W, b.H)
		head := m.HeadOps(m.NumProposals)
		if fa == fb || head == 0 {
			m.Calibrate(anchors[:1])
			return
		}
		fs := (b.Ops - a.Ops) / (fb - fa)
		hs := (a.Ops - fs*fa) / head
		if fs <= 0 || hs <= 0 {
			m.Calibrate(anchors[:1])
			return
		}
		m.featScale, m.headScale = fs, hs
	}
}

// OpsAnchor is a published full-frame operation count at a resolution.
type OpsAnchor struct {
	W, H int
	Ops  float64
}
