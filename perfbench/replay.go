package main

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/gpumodel"
	"repro/internal/serve/control"
	"repro/internal/sim"
	"repro/internal/tracker"
)

// layerCounts are the per-layer work counters of a traced run.
type layerCounts struct {
	frames       int // frames whose layers were replayed
	dets         int // detections returned by replayed detector calls
	maskFrames   int // frames with a refinement mask
	regions      int
	coverage     float64
	tracked      int // frames the tracker was replayed on
	liveTracks   int
	trackIn      int
	priced       int
	launches     int
	pricedRegion int
	modeledGPU   float64 // seconds
	mismatches   int
	// afterSeize counts served frames a serving copy stepped after a
	// kill seized an earlier frame of the same session.
	afterSeize int
}

func (c *layerCounts) add(o *layerCounts) {
	c.frames += o.frames
	c.dets += o.dets
	c.maskFrames += o.maskFrames
	c.regions += o.regions
	c.coverage += o.coverage
	c.tracked += o.tracked
	c.liveTracks += o.liveTracks
	c.trackIn += o.trackIn
	c.priced += o.priced
	c.launches += o.launches
	c.pricedRegion += o.pricedRegion
	c.modeledGPU += o.modeledGPU
	c.mismatches += o.mismatches
	c.afterSeize += o.afterSeize
}

// shadow replays the layers under one detection session from the
// outside. It owns private copies of the session's detectors and tracker
// and, given a frame and the FrameOutput the session produced for it,
// re-runs each layer's call under a span: the proposal or single-model
// DetectFull, the region mask rebuilt from FrameOutput.Regions with
// ReuseMask/AddBox, the refinement DetectRegions on that mask, and the
// tracker's Predict/Observe. Each replay is checked against the output,
// so the replayed timings are known to measure the work the session did.
type shadow struct {
	kind      sim.SystemKind
	cfg       core.Config
	prop, ref *detector.Detector
	tcfg      tracker.Config
	trk       *tracker.Tracker
	mask      *geom.Mask
	gpu       gpumodel.Model

	props, tracked, trackIn []geom.Scored

	rec *recorder
	n   layerCounts
}

func newShadow(spec sim.SystemSpec, classes []dataset.Class, rec *recorder) (*shadow, error) {
	newDet := func(name string) (*detector.Detector, error) {
		d, err := detector.New(name)
		if err != nil {
			return nil, err
		}
		d.Classes = classes
		d.Profile = d.Profile.ScaleNoise(spec.NoiseScale)
		return d, nil
	}
	sh := &shadow{kind: spec.Kind, cfg: spec.Cfg, gpu: gpumodel.Default(), rec: rec, tcfg: tracker.DefaultConfig()}
	if spec.Cfg.Tracker != nil {
		sh.tcfg = *spec.Cfg.Tracker
	}
	var err error
	if sh.ref, err = newDet(spec.Refinement); err != nil {
		return nil, err
	}
	if spec.Kind != sim.Single {
		if sh.prop, err = newDet(spec.Proposal); err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// reset starts a sequence, as the session's Reset does.
func (sh *shadow) reset(seq *dataset.Sequence) {
	if sh.kind == sim.CaTDet {
		sh.trk = tracker.New(sh.tcfg, float64(seq.Width), float64(seq.Height))
	}
}

func (sh *shadow) margin() float64 {
	if sh.cfg.Margin <= 0 {
		return core.Margin
	}
	return sh.cfg.Margin
}

// replay re-runs the layers under one step whose span is parent and
// checks each against out. It returns false on any mismatch.
func (sh *shadow) replay(f detector.Frame, out *core.FrameOutput, parent, req int32) bool {
	rec, n := sh.rec, &sh.n
	n.frames++
	ok := true
	if sh.kind == sim.Single {
		t := rec.now()
		r := sh.ref.DetectFull(f)
		rec.end(spDetFull, parent, req, t)
		n.dets += len(r.Detections)
		return sameScored(r.Detections, out.Detections)
	}

	if sh.kind == sim.CaTDet {
		t := rec.now()
		sh.tracked = sh.trk.PredictAppend(sh.tracked[:0])
		rec.end(spTrkPredict, parent, req, t)
	} else {
		sh.tracked = sh.tracked[:0]
	}
	t := rec.now()
	pr := sh.prop.DetectFull(f)
	rec.end(spDetFull, parent, req, t)
	n.dets += len(pr.Detections)

	// The regions must be the margin-expanded proposals above CThresh
	// followed by the tracker's predictions: this pins the proposal and
	// tracker replays to the step's own inputs.
	sh.props = sh.props[:0]
	for _, d := range pr.Detections {
		if d.Score >= sh.cfg.CThresh {
			sh.props = append(sh.props, d.Scored)
		}
	}
	frame := geom.NewBox(0, 0, float64(f.Width), float64(f.Height))
	if len(out.Regions) != len(sh.props)+len(sh.tracked) || out.NumProposals != len(out.Regions) {
		ok = false
	} else {
		for i, p := range append(sh.props, sh.tracked...) {
			if p.Box.Expand(sh.margin()).Intersect(frame) != out.Regions[i] {
				ok = false
				break
			}
		}
	}

	t = rec.now()
	sh.mask = geom.ReuseMask(sh.mask, float64(f.Width), float64(f.Height), sh.cfg.MaskCell)
	for _, r := range out.Regions {
		sh.mask.AddBox(r)
	}
	rec.end(spGeomMask, parent, req, t)
	n.maskFrames++
	n.regions += len(out.Regions)

	t = rec.now()
	rr := sh.ref.DetectRegions(f, sh.mask, out.NumProposals)
	rec.end(spDetRegions, parent, req, t)
	n.dets += len(rr.Detections)
	n.coverage += rr.Coverage
	if !sameScored(rr.Detections, out.Detections) || rr.Coverage != out.Coverage {
		ok = false
	}

	if sh.kind == sim.CaTDet {
		sh.trackIn = geom.FilterScoreAppend(sh.trackIn[:0], out.Detections, sh.cfg.TrackThresh)
		t = rec.now()
		sh.trk.Observe(sh.trackIn)
		rec.end(spTrkObserve, parent, req, t)
		n.tracked++
		n.trackIn += len(sh.trackIn)
		n.liveTracks += len(sh.trk.Tracks())
	}
	return ok
}

// price replays the gpumodel pricing of one frame run in the given mode
// — exactly the call the serving engine makes for a frame served in that
// mode. It returns the modeled frame time in seconds and the arithmetic
// the frame executes in that mode: a shed frame runs only the proposal
// network, a full-mode frame refines the whole frame.
func (sh *shadow) price(f detector.Frame, out *core.FrameOutput, mode control.Mode, parent, req int32) (seconds, ops float64) {
	rec, n := sh.rec, &sh.n
	w, h := float64(f.Width), float64(f.Height)
	t := rec.now()
	var ft gpumodel.FrameTime
	ops = out.Ops.Total()
	switch {
	case sh.kind == sim.Single:
		ft = sh.gpu.SingleModelFrame(out.Ops.Refinement)
	case mode == control.ModeProposal:
		ft = sh.gpu.ProposalOnlyFrame(out.Ops.Proposal)
		ops = out.Ops.Proposal
	case mode == control.ModeFull:
		full := sh.ref.Cost.RegionOps(f.Width, f.Height, 1, out.NumProposals)
		ft = sh.gpu.FullCascadeFrame(out.Ops.Proposal, full)
		ops = out.Ops.Proposal + full
	default:
		ft = sh.gpu.CaTDetFrame(out.Ops.Proposal, out.Regions, w, h, sh.ref.Cost, out.NumProposals)
		n.pricedRegion += len(out.Regions)
		n.launches += ft.Launches
	}
	rec.end(spGPUPrice, parent, req, t)
	n.priced++
	n.modeledGPU += ft.GPU
	return ft.Total, ops
}

func sameScored(dets []detector.Detection, want []geom.Scored) bool {
	if len(dets) != len(want) {
		return false
	}
	for i := range dets {
		if dets[i].Scored != want[i] {
			return false
		}
	}
	return true
}

// layerMetrics sets the replay-derived detector, geom, tracker, core and
// gpumodel metrics.
func layerMetrics(layer map[string]float64, st *spanStats, n *layerCounts) {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	layer["detector.full_ns"] = st.mean(spDetFull)
	layer["detector.full_calls"] = float64(st.count[spDetFull])
	layer["detector.regions_ns"] = st.mean(spDetRegions)
	layer["detector.regions_calls"] = float64(st.count[spDetRegions])
	layer["detector.dets_per_call"] = div(float64(n.dets), float64(st.count[spDetFull]+st.count[spDetRegions]))
	layer["geom.mask_ns_per_frame"] = st.mean(spGeomMask)
	layer["geom.regions_per_frame"] = div(float64(n.regions), float64(n.maskFrames))
	layer["geom.coverage"] = div(n.coverage, float64(n.maskFrames))
	layer["tracker.predict_ns"] = st.mean(spTrkPredict)
	layer["tracker.observe_ns"] = st.mean(spTrkObserve)
	layer["tracker.live_tracks"] = div(float64(n.liveTracks), float64(n.tracked))
	layer["tracker.dets_in"] = div(float64(n.trackIn), float64(n.tracked))
	layer["core.step_ns_p50"] = st.p50(spCoreStep)
	layer["core.step_ns_sum"] = float64(st.total[spCoreStep])
	layer["core.self_ns"] = div(float64(st.self[spCoreStep]), float64(st.count[spCoreStep]))
	layer["gpumodel.price_ns"] = st.mean(spGPUPrice)
	layer["gpumodel.merge_ratio"] = div(float64(n.launches), float64(n.pricedRegion))
	layer["gpumodel.modeled_gpu_ms_per_frame"] = div(1e3*n.modeledGPU, float64(n.priced))
	layer["replay.frames_checked"] = float64(n.frames)
	layer["replay.frames_after_seize"] = float64(n.afterSeize)
}
