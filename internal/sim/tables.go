package sim

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/gpumodel"
	"repro/internal/metrics"
	"repro/internal/ops"
)

// Beta is the precision level of the paper's delay metric (mD@0.8).
const Beta = 0.8

// Table1Row is one column of the paper's Table 1: a proposal-network
// architecture and its full-frame operation count at KITTI resolution.
type Table1Row struct {
	Spec ops.SmallResNetSpec
	Gops float64
}

// Table1 regenerates Table 1 from the layer specs and the cost model.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, spec := range ops.Table1Specs {
		m := ops.MustCostModel(spec.Name)
		rows = append(rows, Table1Row{
			Spec: spec,
			Gops: ops.Gops(m.FullFrameOps(ops.KITTIWidth, ops.KITTIHeight)),
		})
	}
	return rows
}

// MainRow is one row of Table 2 (KITTI main results).
type MainRow struct {
	System       string
	Gops         float64
	MAPModerate  float64
	MAPHard      float64
	MD08Moderate float64
	MD08Hard     float64
}

// table2Specs are the five systems of Table 2.
func table2Specs() []SystemSpec {
	cfg := core.DefaultConfig()
	return []SystemSpec{
		{Kind: Single, Refinement: "resnet50"},
		{Kind: Cascaded, Proposal: "resnet10a", Refinement: "resnet50", Cfg: cfg},
		{Kind: CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: cfg},
		{Kind: Cascaded, Proposal: "resnet10b", Refinement: "resnet50", Cfg: cfg},
		{Kind: CaTDet, Proposal: "resnet10b", Refinement: "resnet50", Cfg: cfg},
	}
}

// Table2 runs the five KITTI systems and reports ops, mAP and mD@0.8 at
// Moderate and Hard.
func (e Engine) Table2(ds *dataset.Dataset) []MainRow {
	var rows []MainRow
	for _, spec := range table2Specs() {
		r := e.MustRun(spec, ds)
		evM := e.evaluate(ds, r, dataset.Moderate, Beta)
		evH := e.evaluate(ds, r, dataset.Hard, Beta)
		rows = append(rows, MainRow{
			System:       r.SystemName,
			Gops:         r.AvgGops(),
			MAPModerate:  evM.MAP,
			MAPHard:      evH.MAP,
			MD08Moderate: evM.MeanDelay,
			MD08Hard:     evH.MeanDelay,
		})
	}
	return rows
}

// BreakdownRow is one row of Table 3 (operation breakdown, Gops).
type BreakdownRow struct {
	System       string
	Total        float64
	Proposal     float64
	Refinement   float64
	FromTracker  float64
	FromProposal float64
}

// cascadeWorker is one pool worker's cascade and the scratch mask that
// prices one proposal source at a time.
type cascadeWorker struct {
	sys  *core.CaTDet
	mask *geom.Mask
}

// sourceShares prices the refinement work each source of one step's
// regions would cause alone: the proposal net's (the first
// ProposalRegions) and the tracker's. The sources overlap spatially, so
// the shares sum to more than the step's refinement cost. An empty
// source costs 0.
func (w *cascadeWorker) sourceShares(out core.FrameOutput, width, height int) (fromProposal, fromTracker float64) {
	price := func(regions []geom.Box) float64 {
		if len(regions) == 0 {
			return 0
		}
		w.mask = geom.ReuseMask(w.mask, float64(width), float64(height), w.sys.Cfg.MaskCell)
		for _, r := range regions {
			w.mask.AddBox(r)
		}
		return w.sys.Refinement.Cost.RegionOps(width, height, w.mask.CoveredFraction(), len(regions))
	}
	return price(out.Regions[:out.ProposalRegions]), price(out.Regions[out.ProposalRegions:])
}

// stepCascade steps spec's cascade over ds on the engine's pool, one
// system per worker, and hands each frame's output to frame to
// accumulate into its sequence's shard. It returns the system's name and
// the shards in dataset order, so callers fold them deterministically.
func stepCascade[S any](e Engine, ds *dataset.Dataset, spec SystemSpec,
	frame func(w *cascadeWorker, sh *S, seq *dataset.Sequence, out core.FrameOutput)) (string, []S) {
	var name string
	shards, err := mapSequences(e, ds,
		func() (*cascadeWorker, error) {
			sys, err := spec.Build(ds.Classes)
			if err != nil {
				return nil, err
			}
			name = sys.Name()
			return &cascadeWorker{sys: sys.(*core.CaTDet)}, nil
		},
		func(w *cascadeWorker, seq *dataset.Sequence) (sh S) {
			w.sys.Reset(seq)
			for fi := range seq.Frames {
				frame(w, &sh, seq, w.sys.Step(detector.FrameOf(seq, fi)))
			}
			return sh
		})
	if err != nil {
		panic(err)
	}
	return name, shards
}

// breakdownShard is one sequence's share of a Table 3 row.
type breakdownShard struct {
	ops                       core.OpsBreakdown
	fromProposal, fromTracker float64
	frames                    int
}

func (b *breakdownShard) add(o breakdownShard) {
	b.ops.Add(o.ops)
	b.fromProposal += o.fromProposal
	b.fromTracker += o.fromTracker
	b.frames += o.frames
}

// Table3 reports the per-frame operation breakdown of the four cascade
// systems of Table 2, with the refinement work attributed to each
// proposal source.
func (e Engine) Table3(ds *dataset.Dataset) []BreakdownRow {
	var rows []BreakdownRow
	for _, spec := range table2Specs()[1:] {
		name, shards := stepCascade(e, ds, spec,
			func(w *cascadeWorker, sh *breakdownShard, seq *dataset.Sequence, out core.FrameOutput) {
				fromProposal, fromTracker := w.sourceShares(out, seq.Width, seq.Height)
				sh.add(breakdownShard{out.Ops, fromProposal, fromTracker, 1})
			})
		var agg breakdownShard
		for _, sh := range shards {
			agg.add(sh)
		}
		n := float64(agg.frames)
		avg := agg.ops.Scale(n)
		rows = append(rows, BreakdownRow{
			System:       name,
			Total:        ops.Gops(avg.Total()),
			Proposal:     ops.Gops(avg.Proposal),
			Refinement:   ops.Gops(avg.Refinement),
			FromTracker:  ops.Gops(agg.fromTracker / n),
			FromProposal: ops.Gops(agg.fromProposal / n),
		})
	}
	return rows
}

// StudyRow is one row of Table 4 or Table 5: the same model evaluated
// standalone ("FR-CNN") and inside CaTDet.
type StudyRow struct {
	Model   string
	Setting string // "FR-CNN" or "CaTDet(P)" / "CaTDet(R)"
	MAP     float64
	MD08    float64
	Gops    float64
}

// studyRow runs one spec and formats it as a study row at the given
// difficulty.
func (e Engine) studyRow(ds *dataset.Dataset, spec SystemSpec, model, setting string, diff dataset.Difficulty) StudyRow {
	r := e.MustRun(spec, ds)
	ev := e.evaluate(ds, r, diff, Beta)
	return StudyRow{Model: model, Setting: setting, MAP: ev.MAP, MD08: ev.MeanDelay, Gops: r.AvgGops()}
}

// Table4 sweeps the proposal network (refinement fixed to ResNet-50):
// every model is evaluated as a single Faster R-CNN and as CaTDet's
// proposal net, at KITTI Hard.
func (e Engine) Table4(ds *dataset.Dataset) []StudyRow {
	var rows []StudyRow
	for _, name := range []string{"resnet18", "resnet10a", "resnet10b", "resnet10c"} {
		rows = append(rows,
			e.studyRow(ds, SystemSpec{Kind: Single, Refinement: name}, name, "FR-CNN", dataset.Hard),
			e.studyRow(ds, SystemSpec{Kind: CaTDet, Proposal: name, Refinement: "resnet50", Cfg: core.DefaultConfig()}, name, "CaTDet(P)", dataset.Hard))
	}
	return rows
}

// Table5 sweeps the refinement network (proposal fixed to ResNet-10b)
// at KITTI Hard.
func (e Engine) Table5(ds *dataset.Dataset) []StudyRow {
	var rows []StudyRow
	for _, name := range []string{"resnet18", "resnet50", "vgg16"} {
		rows = append(rows,
			e.studyRow(ds, SystemSpec{Kind: Single, Refinement: name}, name, "FR-CNN", dataset.Hard),
			e.studyRow(ds, SystemSpec{Kind: CaTDet, Proposal: "resnet10b", Refinement: name, Cfg: core.DefaultConfig()}, name, "CaTDet(R)", dataset.Hard))
	}
	return rows
}

// CityRow is one row of Table 6 (CityPersons: mAP and ops only — the
// sparse labels cannot support the delay metric).
type CityRow struct {
	System string
	MAP    float64
	Gops   float64
}

// Table6 runs the Table 2 systems on the CityPersons-sim dataset with
// identical hyper-parameters ("to ensure that CaTDet systems are robust
// across different scenarios").
func (e Engine) Table6(ds *dataset.Dataset) []CityRow {
	var rows []CityRow
	for _, spec := range table2Specs() {
		r := e.MustRun(spec, ds)
		// CityPersons is evaluated with the VOC protocol on Person;
		// the Hard filter admits every reasonably-sized box.
		ev := e.evaluate(ds, r, dataset.Hard, Beta)
		rows = append(rows, CityRow{System: r.SystemName, MAP: ev.MAP, Gops: r.AvgGops()})
	}
	return rows
}

// TimingRow is one row of Table 7 (measured execution time on the GPU
// platform, here estimated by the Appendix I linear model).
type TimingRow struct {
	System  string
	Total   float64
	GPUOnly float64
	// AvgLaunches is the mean number of merged refinement launches per
	// frame (diagnostic, not in the paper's table).
	AvgLaunches float64
}

// timingShard is one sequence's share of the Table 7 accounting.
type timingShard struct {
	gpu, total, launches float64
	frames               int
}

// Table7 estimates per-frame execution times for the single-model
// ResNet-50 system and the (Res10a, Res50) CaTDet system using the
// GPU model with greedy region merging. The CaTDet pass is sharded per
// sequence like every other run.
func (e Engine) Table7(ds *dataset.Dataset) []TimingRow {
	gm := gpumodel.Default()
	refCost := ops.MustCostModel("resnet50")

	single := gm.SingleModelFrame(refCost.FullFrameOps(ops.KITTIWidth, ops.KITTIHeight))
	rows := []TimingRow{{
		System: "Res50 Faster R-CNN", Total: single.Total, GPUOnly: single.GPU, AvgLaunches: 1,
	}}

	spec := SystemSpec{Kind: CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: core.DefaultConfig()}
	_, shards := stepCascade(e, ds, spec,
		func(_ *cascadeWorker, sh *timingShard, seq *dataset.Sequence, out core.FrameOutput) {
			ft := gm.CaTDetFrame(out.Ops.Proposal, out.Regions,
				float64(seq.Width), float64(seq.Height), refCost, out.NumProposals)
			sh.gpu += ft.GPU
			sh.total += ft.Total
			sh.launches += float64(ft.Launches)
			sh.frames++
		})
	var agg timingShard
	for _, sh := range shards {
		agg.gpu += sh.gpu
		agg.total += sh.total
		agg.launches += sh.launches
		agg.frames += sh.frames
	}
	n := float64(agg.frames)
	rows = append(rows, TimingRow{
		System: "Res10a-Res50 CaTDet", Total: agg.total / n, GPUOnly: agg.gpu / n, AvgLaunches: agg.launches / n,
	})
	return rows
}

// Table8 compares single-model RetinaNet with RetinaNet-based CaTDet at
// KITTI Moderate (Appendix II).
func (e Engine) Table8(ds *dataset.Dataset) []StudyRow {
	return []StudyRow{
		e.studyRow(ds, SystemSpec{Kind: Single, Refinement: "retinanet-res50"}, "retinanet-res50", "single", dataset.Moderate),
		e.studyRow(ds, SystemSpec{Kind: CaTDet, Proposal: "resnet10a", Refinement: "retinanet-res50", Cfg: core.DefaultConfig()}, "retinanet-res50", "CaTDet", dataset.Moderate),
	}
}

// SweepPoint is one point of Figure 6: one proposal network, with or
// without the tracker, at one proposal-output threshold.
type SweepPoint struct {
	Model   string
	Tracker bool
	CThresh float64
	MAP     float64
	MD08    float64
	Gops    float64
}

// Figure6CThresh is the paper's sweep grid.
var Figure6CThresh = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6}

// Figure6 sweeps the proposal network's output threshold for three
// proposal nets, with and without the tracker (KITTI Hard, refinement
// ResNet-50).
func (e Engine) Figure6(ds *dataset.Dataset, cthreshs []float64) []SweepPoint {
	if cthreshs == nil {
		cthreshs = Figure6CThresh
	}
	var pts []SweepPoint
	for _, model := range []string{"resnet10a", "resnet10c", "resnet18"} {
		for _, withTracker := range []bool{true, false} {
			for _, ct := range cthreshs {
				cfg := core.DefaultConfig()
				cfg.CThresh = ct
				kind := CaTDet
				if !withTracker {
					kind = Cascaded
				}
				r := e.MustRun(SystemSpec{Kind: kind, Proposal: model, Refinement: "resnet50", Cfg: cfg}, ds)
				ev := e.evaluate(ds, r, dataset.Hard, Beta)
				pts = append(pts, SweepPoint{
					Model: model, Tracker: withTracker, CThresh: ct,
					MAP: ev.MAP, MD08: ev.MeanDelay, Gops: r.AvgGops(),
				})
			}
		}
	}
	return pts
}

// Figure7 produces the per-class recall/delay vs precision curves for
// the (Res10a, Res50) CaTDet system at KITTI Hard.
func (e Engine) Figure7(ds *dataset.Dataset) map[dataset.Class][]metrics.CurvePoint {
	r := e.MustRun(SystemSpec{Kind: CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: core.DefaultConfig()}, ds)
	targets := make([]float64, 0, 26)
	for p := 0.5; p <= 1.0001; p += 0.02 {
		targets = append(targets, p)
	}
	scores := e.score(ds, r.Detections, dataset.Hard)
	out := map[dataset.Class][]metrics.CurvePoint{}
	for _, c := range ds.Classes {
		out[c] = scores.Curve(c, targets)
	}
	return out
}
