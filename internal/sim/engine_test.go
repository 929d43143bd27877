package sim

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/video"
)

// TestParallelMatchesSerial is the engine's determinism contract: the
// sharded parallel runner must reproduce the one-worker run bit for bit
// at every worker count, because both paths accumulate per-sequence shards
// and merge them in dataset order.
func TestParallelMatchesSerial(t *testing.T) {
	ds := video.Generate(video.MiniKITTIPreset(), 1)
	spec := SystemSpec{Kind: CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: core.DefaultConfig()}
	serial := Engine{Workers: 1}.MustRun(spec, ds)

	for _, workers := range []int{1, 2, 8} {
		par, err := Engine{Workers: workers}.Run(spec, ds)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.SystemName != serial.SystemName || par.Dataset != serial.Dataset {
			t.Errorf("workers=%d: identity mismatch: %q/%q vs %q/%q",
				workers, par.SystemName, par.Dataset, serial.SystemName, serial.Dataset)
		}
		if par.Frames != serial.Frames {
			t.Errorf("workers=%d: frames = %d, want %d", workers, par.Frames, serial.Frames)
		}
		if par.TotalOps != serial.TotalOps {
			t.Errorf("workers=%d: TotalOps = %+v, want %+v", workers, par.TotalOps, serial.TotalOps)
		}
		if par.AvgProposals != serial.AvgProposals {
			t.Errorf("workers=%d: AvgProposals = %v, want %v", workers, par.AvgProposals, serial.AvgProposals)
		}
		if par.AvgCoverage != serial.AvgCoverage {
			t.Errorf("workers=%d: AvgCoverage = %v, want %v", workers, par.AvgCoverage, serial.AvgCoverage)
		}
		if !reflect.DeepEqual(par.Detections, serial.Detections) {
			t.Errorf("workers=%d: detections differ from serial run", workers)
		}
	}
}

// TestParallelStatelessSystems checks the engine on the other two
// architectures too: the single-model detector (stateless) and the
// plain cascade.
func TestParallelStatelessSystems(t *testing.T) {
	ds := video.Generate(video.MiniKITTIPreset(), 1)
	for _, spec := range []SystemSpec{
		{Kind: Single, Refinement: "resnet10b"},
		{Kind: Cascaded, Proposal: "resnet10b", Refinement: "resnet18", Cfg: core.DefaultConfig()},
	} {
		serial := Engine{Workers: 1}.MustRun(spec, ds)
		par := Engine{Workers: 4}.MustRun(spec, ds)
		if !reflect.DeepEqual(par, serial) {
			t.Errorf("%s %s: parallel result differs from serial", spec.Kind, spec.Refinement)
		}
	}
}

// TestRunFactoryError verifies that a broken factory surfaces as an
// error before any work is scheduled.
func TestRunFactoryError(t *testing.T) {
	ds := video.Generate(video.MiniKITTIPreset(), 1)
	if _, err := (Engine{Workers: 4}).Run(SystemSpec{Kind: Single, Refinement: "nope"}, ds); err == nil {
		t.Fatal("expected build error for unknown model")
	}
}

// TestEngineTable7MatchesSerial pins the sharded cascade passes of
// Table 7 and Table 3 to the single-worker result.
func TestEngineTable7MatchesSerial(t *testing.T) {
	ds := video.Generate(video.MiniKITTIPreset(), 1)
	serial := Engine{Workers: 1}.Table7(ds)
	par := Engine{Workers: 8}.Table7(ds)
	if !reflect.DeepEqual(par, serial) {
		t.Errorf("Table7 parallel = %+v, want %+v", par, serial)
	}
	serial3 := Engine{Workers: 1}.Table3(ds)
	par3 := Engine{Workers: 8}.Table3(ds)
	if !reflect.DeepEqual(par3, serial3) {
		t.Errorf("Table3 parallel = %+v, want %+v", par3, serial3)
	}
}
