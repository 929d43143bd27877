// Package gpumodel implements the GPU execution-time model of the
// paper's Appendix I. GPU time for a CNN workload W is modeled as
// T = alpha*W + b, where b is a per-launch constant ("estimated to
// roughly match the execution time of a 400x400 image"). Because each
// separately processed region pays b, nearby regions are merged with
// the greedy algorithm of the appendix whenever the merged rectangle is
// estimated to execute faster than the two parts.
package gpumodel

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/ops"
)

// Model holds the linear timing parameters plus the CPU-side per-frame
// overheads (data loading, framework wrapping) observed in Table 7 as
// the difference between "Total" and "GPU-only" time.
type Model struct {
	// Alpha is seconds per arithmetic operation on the GPU.
	Alpha float64
	// LaunchOverhead is b: seconds charged per separate region launch.
	LaunchOverhead float64
	// CPUOverheadSingle and CPUOverheadCaTDet are the per-frame
	// non-GPU seconds for the two pipelines.
	CPUOverheadSingle float64
	CPUOverheadCaTDet float64
}

// Default returns parameters fitted to the paper's Table 7 anchors on a
// Maxwell Titan X: the single-model Res50 row (254.3 Gops in 0.159 s
// GPU time, one launch) pins Alpha; the launch overhead is set so small
// regions are dominated by b, which drives merging.
func Default() Model {
	return Model{
		Alpha:             6.15e-13, // 0.159s / (254.3G + b-equivalent)
		LaunchOverhead:    2.5e-3,
		CPUOverheadSingle: 0.034, // 0.193 - 0.159
		CPUOverheadCaTDet: 0.046,
	}
}

// Validate checks that every parameter is finite and non-negative, the
// premise of every price the model produces: a NaN poisons the clock it
// is added to, and a negative one runs it backwards. The error is
// rooted at the field name ("Alpha: ..."), for callers to prefix with
// the path of their model.
func (m Model) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"Alpha", m.Alpha},
		{"LaunchOverhead", m.LaunchOverhead},
		{"CPUOverheadSingle", m.CPUOverheadSingle},
		{"CPUOverheadCaTDet", m.CPUOverheadCaTDet},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("%s: must be finite and non-negative, got %v", f.name, f.v)
		}
	}
	return nil
}

// LaunchTime returns T = alpha*W + b for one launch of W operations.
func (m Model) LaunchTime(w float64) float64 {
	return m.Alpha*w + m.LaunchOverhead
}

// RegionWorkload estimates the operations to process one rectangular
// region with the refinement network: the feature extractor scaled by
// the region's share of the frame area plus the head cost for the RoIs
// inside it.
func (m Model) RegionWorkload(region geom.Box, frameW, frameH float64, cost ops.CostModel, roisInside int) float64 {
	if frameW <= 0 || frameH <= 0 {
		return 0
	}
	return cost.RegionOps(int(frameW), int(frameH), areaFrac(region, frameW, frameH), roisInside)
}

// areaFrac returns the region's share of a frameW-by-frameH frame,
// clamped to [0, 1].
func areaFrac(region geom.Box, frameW, frameH float64) float64 {
	frac := region.Area() / (frameW * frameH)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// featureOps returns the refinement network's full-frame feature
// extraction ops, or 0 for a frame without area.
func featureOps(frameW, frameH float64, cost ops.CostModel) float64 {
	if frameW <= 0 || frameH <= 0 {
		return 0
	}
	return cost.RegionOps(int(frameW), int(frameH), 1, 0)
}

// appendMerged applies the appendix's greedy merging to the refinement
// regions and appends the merged regions to dst: two boxes merge when
// the estimated execution time of their union is below the sum of their
// individual times (each paying the launch overhead). RoI-head work is
// ignored during merging — it is invariant to the merge — so the cost
// function prices feature extraction only. A frame without area prices
// every region at the launch overhead alone.
//
// A candidate rectangle's time is alpha*(feat*frac) + b, where feat is
// the frame's full-frame feature ops (featureOps), constant across the
// whole merge, so the cost-model call is hoisted out of the greedy
// merge, which prices every candidate union. The hoisted form
// multiplies the same two floats RegionWorkload would, so merge
// decisions are bit-identical.
func (m Model) appendMerged(dst, regions []geom.Box, frameW, frameH, feat float64) []geom.Box {
	if frameW <= 0 || frameH <= 0 {
		flat := m.LaunchTime(0)
		return geom.AppendGreedyMerge(dst, regions, func(geom.Box) float64 { return flat })
	}
	return geom.AppendGreedyMerge(dst, regions, func(b geom.Box) float64 {
		return m.LaunchTime(feat * areaFrac(b, frameW, frameH))
	})
}

// FrameTime is the per-frame timing estimate for one CaTDet (or
// cascaded) frame.
type FrameTime struct {
	// GPU is the GPU kernel time: the proposal network's full-frame
	// launch plus one launch per merged refinement region.
	GPU float64
	// Total adds the CPU-side overhead.
	Total float64
	// Launches is the number of refinement launches after merging.
	Launches int
	// MergedWorkload is the refinement operations actually executed,
	// including the area added by merging (>= the unmerged workload).
	MergedWorkload float64
}

// CaTDetFrame estimates the frame time for a cascaded/CaTDet frame:
// proposalOps ran as one full-frame launch, and the (pre-merge)
// refinement regions each carry margin already.
func (m Model) CaTDetFrame(proposalOps float64, regions []geom.Box, frameW, frameH float64,
	refCost ops.CostModel, nProposals int) FrameTime {

	// The merged launches land in a stack buffer, so pricing a frame of
	// up to 64 regions does not allocate.
	var buf [64]geom.Box
	feat := featureOps(frameW, frameH, refCost)
	merged := m.appendMerged(buf[:0], regions, frameW, frameH, feat)
	gpu := m.LaunchTime(proposalOps)
	work := 0.0
	launches := len(merged)
	hasArea := frameW > 0 && frameH > 0
	w, h := int(frameW), int(frameH)
	for i, r := range merged {
		// Attribute the RoI head work to the merged launches, all on
		// the first launch for simplicity (it is launch-invariant).
		rois := 0
		if i == 0 {
			rois = nProposals
		}
		// RegionWorkload's RegionOps(w, h, frac, rois), bit for bit
		// without a second trunk walk: FeatureOps*1 + 0 and
		// FeatureOps*0 + head are exact.
		lw := 0.0
		if hasArea {
			lw = feat*areaFrac(r, frameW, frameH) + refCost.RegionOps(w, h, 0, rois)
		}
		work += lw
		gpu += m.LaunchTime(lw)
	}
	if len(merged) == 0 && nProposals > 0 && hasArea {
		// No refinement region survived merging but RoIs still need the
		// head pass (e.g. every proposal fell on an already-tracked
		// object, so no region was scheduled). Charge a zero-area,
		// head-only launch instead of silently dropping the work.
		lw := refCost.RegionOps(w, h, 0, nProposals)
		work += lw
		gpu += m.LaunchTime(lw)
		launches = 1
	}
	return FrameTime{
		GPU:            gpu,
		Total:          gpu + m.CPUOverheadCaTDet,
		Launches:       launches,
		MergedWorkload: work,
	}
}

// BatchFrames prices one cross-frame batched launch: the workloads of
// every frame in the batch execute as a single fused launch, so
// T_gpu = alpha*ΣW + b — the per-launch constant b from Appendix I is
// paid once for the whole batch, exactly the amortization that region
// merging performs spatially within a frame. Each workload must be a
// frame's total operations (for CaTDet: proposal pass plus merged
// refinement regions including the RoI head). cpuPerFrame is the
// non-GPU per-frame overhead, still paid once per frame — data
// loading and framework wrapping do not batch away.
func (m Model) BatchFrames(workloads []float64, cpuPerFrame float64) FrameTime {
	w := 0.0
	for _, wi := range workloads {
		w += wi
	}
	gpu := m.LaunchTime(w)
	return FrameTime{
		GPU:            gpu,
		Total:          gpu + cpuPerFrame*float64(len(workloads)),
		Launches:       1,
		MergedWorkload: w,
	}
}

// FullCascadeFrame estimates the frame time of a cascade frame whose
// refinement runs on the entire frame instead of the gated regions:
// the proposal network's full-frame launch (still feeding the
// tracker) plus one full-frame refinement launch of refOps
// operations. This is the serving layer's highest-quality mode —
// CaTDet's region gating, the source of its speedup, is given up for
// maximum refinement coverage — and the upper anchor the adaptive
// control plane (serve/control) trades against ProposalOnlyFrame.
func (m Model) FullCascadeFrame(proposalOps, refOps float64) FrameTime {
	gpu := m.LaunchTime(proposalOps) + m.LaunchTime(refOps)
	return FrameTime{
		GPU:            gpu,
		Total:          gpu + m.CPUOverheadCaTDet,
		Launches:       1,
		MergedWorkload: refOps,
	}
}

// ProposalOnlyFrame estimates the frame time of a cascade frame whose
// refinement pass has been shed (the serving layer's degraded mode
// under overload): only the proposal network's full-frame launch runs.
func (m Model) ProposalOnlyFrame(proposalOps float64) FrameTime {
	gpu := m.LaunchTime(proposalOps)
	return FrameTime{
		GPU:            gpu,
		Total:          gpu + m.CPUOverheadCaTDet,
		Launches:       1,
		MergedWorkload: proposalOps,
	}
}

// SingleModelFrame estimates the frame time of the single-model system:
// one full-frame launch.
func (m Model) SingleModelFrame(fullOps float64) FrameTime {
	gpu := m.LaunchTime(fullOps)
	return FrameTime{
		GPU:            gpu,
		Total:          gpu + m.CPUOverheadSingle,
		Launches:       1,
		MergedWorkload: fullOps,
	}
}
