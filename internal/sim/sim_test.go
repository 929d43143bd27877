package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/video"
)

// miniKITTI returns a reduced KITTI world that is still large enough
// for stable metric shapes.
func miniKITTI() *dataset.Dataset {
	p := video.KITTIPreset()
	p.NumSequences = 3
	p.FramesPerSeq = 200
	return video.Generate(p, 1)
}

func TestRunCollectsEverything(t *testing.T) {
	ds := miniKITTI()
	sys := SystemSpec{Kind: CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: core.DefaultConfig()}.MustBuild(ds.Classes)
	r := Run(sys, ds)
	if r.Frames != ds.NumFrames() {
		t.Fatalf("frames = %d, want %d", r.Frames, ds.NumFrames())
	}
	for si := range ds.Sequences {
		if len(r.Detections[ds.Sequences[si].ID]) != len(ds.Sequences[si].Frames) {
			t.Fatal("per-sequence detection shape mismatch")
		}
	}
	if r.AvgGops() <= 0 || r.AvgCoverage <= 0 || r.AvgProposals <= 0 {
		t.Fatalf("missing statistics: %+v", r)
	}
}

func TestRunDeterministic(t *testing.T) {
	ds := miniKITTI()
	spec := SystemSpec{Kind: CaTDet, Proposal: "resnet10b", Refinement: "resnet50", Cfg: core.DefaultConfig()}
	a := Run(spec.MustBuild(ds.Classes), ds)
	b := Run(spec.MustBuild(ds.Classes), ds)
	if a.AvgGops() != b.AvgGops() || a.AvgProposals != b.AvgProposals {
		t.Fatal("re-running the same system produced different results")
	}
}

func TestBuildSystemErrors(t *testing.T) {
	if _, err := (SystemSpec{Kind: Single, Refinement: "nope"}).Build(nil); err == nil {
		t.Fatal("expected error for unknown refinement")
	}
	if _, err := (SystemSpec{Kind: CaTDet, Proposal: "nope", Refinement: "resnet50"}).Build(nil); err == nil {
		t.Fatal("expected error for unknown proposal")
	}
	if _, err := (SystemSpec{Kind: "weird", Refinement: "resnet50"}).Build(nil); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	want := map[string]float64{"resnet18": 138.3, "resnet10a": 20.7, "resnet10b": 7.5, "resnet10c": 4.5}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.Gops-want[r.Spec.Name]) > 0.05 {
			t.Errorf("%s ops = %.2f, want %.1f", r.Spec.Name, r.Gops, want[r.Spec.Name])
		}
	}
}

// The headline claims of Table 2, on the reduced world: CaTDet matches
// or beats the single model's Hard mAP at several times fewer ops,
// while the plain cascade is cheaper but less accurate than CaTDet.
func TestTable2Shape(t *testing.T) {
	ds := miniKITTI()
	rows := Engine{}.Table2(ds)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	single, casc10a, cat10a := rows[0], rows[1], rows[2]
	if !strings.Contains(single.System, "Faster R-CNN") {
		t.Fatalf("row order changed: %v", single.System)
	}
	if cat10a.MAPHard < single.MAPHard-0.02 {
		t.Errorf("CaTDet Hard mAP %.3f well below single %.3f", cat10a.MAPHard, single.MAPHard)
	}
	if single.Gops/cat10a.Gops < 3 {
		t.Errorf("ops saving %.1fx, want > 3x", single.Gops/cat10a.Gops)
	}
	if casc10a.Gops >= cat10a.Gops {
		t.Errorf("cascade (%.1fG) should be cheaper than CaTDet (%.1fG)", casc10a.Gops, cat10a.Gops)
	}
	if casc10a.MAPHard >= cat10a.MAPHard {
		t.Errorf("cascade mAP %.3f should trail CaTDet %.3f", casc10a.MAPHard, cat10a.MAPHard)
	}
}

// Table 3 invariants: total = proposal + refinement; the two refinement
// shares overlap (sum >= refinement) and each is <= refinement.
func TestTable3Breakdown(t *testing.T) {
	ds := miniKITTI()
	rows := Engine{}.Table3(ds)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.Total-(r.Proposal+r.Refinement)) > 0.1 {
			t.Errorf("%s: total %.1f != proposal %.1f + refinement %.1f", r.System, r.Total, r.Proposal, r.Refinement)
		}
		isCat := strings.Contains(r.System, "CaTDet")
		if isCat {
			if r.FromTracker <= 0 || r.FromProposal <= 0 {
				t.Errorf("%s: missing attribution", r.System)
			}
			if r.FromTracker+r.FromProposal < r.Refinement-0.1 {
				t.Errorf("%s: shares do not cover refinement", r.System)
			}
			if r.FromTracker > r.Refinement+0.1 || r.FromProposal > r.Refinement+0.1 {
				t.Errorf("%s: share exceeds refinement", r.System)
			}
		} else if r.FromTracker != 0 {
			t.Errorf("%s: cascade has tracker share", r.System)
		}
	}
}

// TestCaTDetBreakdownOverlap pins Table 3's per-source pricing frame by
// frame: each source's share is at most the actual refinement cost, the
// two shares together cover it (they can only overlap, never miss
// area), the tracker contributes within 80 frames, and the tracker-less
// cascade never does.
func TestCaTDetBreakdownOverlap(t *testing.T) {
	ds := video.Generate(video.MiniKITTIPreset(), 3)
	seq := &ds.Sequences[0]
	for _, kind := range []SystemKind{CaTDet, Cascaded} {
		spec := SystemSpec{Kind: kind, Proposal: "resnet10a", Refinement: "resnet50", Cfg: core.DefaultConfig()}
		w := &cascadeWorker{sys: spec.MustBuild(ds.Classes).(*core.CaTDet)}
		w.sys.Reset(seq)
		sawTrackerWork := false
		for fi := 0; fi < 80; fi++ {
			out := w.sys.Step(detector.FrameOf(seq, fi))
			fromProposal, fromTracker := w.sourceShares(out, seq.Width, seq.Height)
			ref := out.Ops.Refinement
			if fromTracker > ref+1 {
				t.Fatalf("%s frame %d: tracker share %.3e exceeds refinement %.3e", kind, fi, fromTracker, ref)
			}
			if fromProposal > ref+1 {
				t.Fatalf("%s frame %d: proposal share %.3e exceeds refinement %.3e", kind, fi, fromProposal, ref)
			}
			if sum := fromTracker + fromProposal; sum < ref-1 {
				t.Fatalf("%s frame %d: shares %.3e fail to cover refinement %.3e", kind, fi, sum, ref)
			}
			if fromTracker > 0 {
				sawTrackerWork = true
			}
		}
		if want := kind == CaTDet; sawTrackerWork != want {
			t.Fatalf("%s: tracker share seen in 80 frames = %v, want %v", kind, sawTrackerWork, want)
		}
	}
}

// Table 4's headline: single-model mAP varies widely across proposal
// nets, but CaTDet mAP is nearly flat; delay degrades as the proposal
// net weakens.
func TestTable4Shape(t *testing.T) {
	ds := miniKITTI()
	rows := Engine{}.Table4(ds)
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	var singles, catdets []StudyRow
	for _, r := range rows {
		if r.Setting == "FR-CNN" {
			singles = append(singles, r)
		} else {
			catdets = append(catdets, r)
		}
	}
	singleSpread := singles[0].MAP - singles[len(singles)-1].MAP
	catSpread := math.Abs(catdets[0].MAP - catdets[len(catdets)-1].MAP)
	if singleSpread < 0.1 {
		t.Errorf("single-model mAP spread %.3f too small to be interesting", singleSpread)
	}
	if catSpread > singleSpread/2 {
		t.Errorf("CaTDet mAP spread %.3f not flat vs single spread %.3f", catSpread, singleSpread)
	}
	// Delay: a better proposal net gives a lower CaTDet delay.
	if !(catdets[0].MD08 <= catdets[len(catdets)-1].MD08+0.5) {
		t.Errorf("CaTDet delay should improve with better proposal nets: %v vs %v",
			catdets[0].MD08, catdets[len(catdets)-1].MD08)
	}
}

// Table 5's headline: CaTDet's accuracy tracks the refinement network's
// own single-model accuracy.
func TestTable5Shape(t *testing.T) {
	ds := miniKITTI()
	rows := Engine{}.Table5(ds)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		single, cat := rows[i], rows[i+1]
		if math.Abs(single.MAP-cat.MAP) > 0.08 {
			t.Errorf("%s: CaTDet(R) mAP %.3f far from single %.3f", single.Model, cat.MAP, single.MAP)
		}
		if cat.Gops >= single.Gops {
			t.Errorf("%s: CaTDet not cheaper", single.Model)
		}
	}
}

func TestTable7Timing(t *testing.T) {
	p := video.KITTIPreset()
	p.NumSequences = 2
	p.FramesPerSeq = 120
	ds := video.Generate(p, 1)
	rows := Engine{}.Table7(ds)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	single, cat := rows[0], rows[1]
	if !(cat.GPUOnly < single.GPUOnly/2) {
		t.Errorf("CaTDet GPU time %.3f not well below single %.3f", cat.GPUOnly, single.GPUOnly)
	}
	if !(cat.Total < single.Total) {
		t.Errorf("CaTDet total %.3f not below single %.3f", cat.Total, single.Total)
	}
	if cat.AvgLaunches <= 0 {
		t.Error("no refinement launches recorded")
	}
}

func TestFormattersProduceOutput(t *testing.T) {
	ds := miniKITTI()
	var buf bytes.Buffer
	WriteTable1(&buf, Table1())
	rows2 := Engine{}.Table2(ds)
	WriteTable2(&buf, rows2)
	WriteTable3(&buf, Engine{}.Table3(ds))
	WriteStudy(&buf, Engine{}.Table5(ds))
	if buf.Len() == 0 || !strings.Contains(buf.String(), "resnet") {
		t.Fatal("formatters produced nothing useful")
	}
	// NaN delays must render as n/a, not NaN.
	var sparse bytes.Buffer
	WriteTable2(&sparse, []MainRow{{System: "x", MD08Moderate: math.NaN(), MD08Hard: math.NaN()}})
	if strings.Contains(sparse.String(), "NaN") {
		t.Fatal("NaN leaked into formatted output")
	}
}

func TestEvaluateSparseDatasetSkipsDelay(t *testing.T) {
	p := video.CityPersonsPreset()
	p.NumSequences = 6
	ds := video.Generate(p, 1)
	sys := SystemSpec{Kind: Single, Refinement: "resnet50"}.MustBuild(ds.Classes)
	r := Run(sys, ds)
	ev := Evaluate(ds, r, dataset.Hard, Beta)
	if !math.IsNaN(ev.MeanDelay) {
		t.Fatalf("sparse dataset returned delay %v, want NaN", ev.MeanDelay)
	}
	if ev.MAP <= 0 || ev.MAP > 1 {
		t.Fatalf("mAP = %v", ev.MAP)
	}
}
