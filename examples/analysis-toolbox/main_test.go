package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// runMain runs main with stdout redirected into a pipe and returns what
// it printed.
func runMain(t *testing.T) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	main()
	w.Close()
	return <-out
}

// lineWith returns the first output line starting with prefix.
func lineWith(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	t.Fatalf("output has no line starting %q:\n%s", prefix, out)
	return ""
}

// TestAnalysisToolboxPrintsEverySection smoke-runs the example: the
// per-layer report, the tracklets, entry and exit delay at precision
// 0.8, VOC against COCO mAP, and the lossless oracle.
func TestAnalysisToolboxPrintsEverySection(t *testing.T) {
	out := runMain(t)
	for _, head := range []string{"--- per-layer ops", "--- tracklets", "--- entry vs exit delay", "--- VOC vs COCO", "--- oracle upper bound"} {
		if !strings.Contains(out, head) {
			t.Errorf("output has no %q section", head)
		}
	}

	var entry, exit, thr float64
	if _, err := fmt.Sscanf(lineWith(t, out, "entry delay"), "entry delay %f frames, exit delay %f frames (threshold %f)", &entry, &exit, &thr); err != nil {
		t.Fatalf("entry/exit line: %v", err)
	}
	if entry < 0 || exit < 0 || thr <= 0 || thr > 1 {
		t.Errorf("entry %v, exit %v, threshold %v out of range", entry, exit, thr)
	}

	var voc, coco, at50, at75, at95 float64
	if _, err := fmt.Sscanf(lineWith(t, out, "VOC"), "VOC (KITTI thresholds): %f", &voc); err != nil {
		t.Fatalf("VOC line: %v", err)
	}
	if _, err := fmt.Sscanf(lineWith(t, out, "COCO"), "COCO mAP@[.5:.95]: %f (mAP@0.5 %f, mAP@0.75 %f, mAP@0.95 %f)", &coco, &at50, &at75, &at95); err != nil {
		t.Fatalf("COCO line: %v", err)
	}
	// Stricter IoU thresholds can only lose matches, and the COCO
	// average over them falls below the loose KITTI evaluation.
	if !(at50 >= at75 && at75 >= at95) || !(coco < voc) || voc <= 0 {
		t.Errorf("VOC %v, COCO %v (@0.5 %v, @0.75 %v, @0.95 %v): not ordered", voc, coco, at50, at75, at95)
	}

	if l := lineWith(t, out, "oracle CaTDet mAP"); !strings.HasPrefix(l, "oracle CaTDet mAP: 1.000") {
		t.Errorf("oracle is not lossless: %q", l)
	}
}
