package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/video"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// reportGolden pins the reduced report's JSON byte for byte, so a drift in
// any table or figure fails here rather than only in a full reproduction
// run. Run with -update to rewrite it after an intentional change.
const reportGolden = "report_golden.json"

func TestRunAllReportAndShapeCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	kp := video.KITTIPreset()
	kp.NumSequences = 3
	kp.FramesPerSeq = 220
	kitti := video.Generate(kp, 1)
	cp := video.CityPersonsPreset()
	cp.NumSequences = 40
	city := video.Generate(cp, 1)

	rep := Engine{}.RunAll(kitti, city, 1)
	if len(rep.Table1) != 4 || len(rep.Table2) != 5 || len(rep.Table6) != 5 {
		t.Fatalf("report incomplete: %d/%d/%d", len(rep.Table1), len(rep.Table2), len(rep.Table6))
	}
	if violations := rep.ShapeCheck(); len(violations) != 0 {
		t.Fatalf("shape check failed:\n%v", violations)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", reportGolden)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report drifted from %s (run with -update if intentional)", path)
	}

	// JSON round trip.
	var got Report
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.KITTIFrames != rep.KITTIFrames || len(got.Figure6) != len(rep.Figure6) {
		t.Fatal("report round trip mismatch")
	}
	if len(got.Figure7) == 0 {
		t.Fatal("figure7 curves lost in round trip")
	}
}

func TestShapeCheckCatchesViolations(t *testing.T) {
	rep := &Report{
		Table2: []MainRow{
			{System: "single", Gops: 254, MAPHard: 0.75},
			{System: "casc", Gops: 46, MAPHard: 0.80}, // cascade above CaTDet: violation
			{System: "cat", Gops: 54, MAPHard: 0.60},  // CaTDet far below single: violation
			{System: "casc10b", Gops: 33, MAPHard: 0.70},
			{System: "cat10b", Gops: 41, MAPHard: 0.77},
		},
	}
	violations := rep.ShapeCheck()
	if len(violations) < 2 {
		t.Fatalf("expected >= 2 violations, got %v", violations)
	}
}
