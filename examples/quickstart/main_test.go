package main

import (
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

// TestQuickstartPrintsBothSystems smoke-runs the example: it must print
// one row for the single-model baseline and one for CaTDet.
func TestQuickstartPrintsBothSystems(t *testing.T) {
	out := runMain(t)
	for _, row := range []string{"resnet50, Faster R-CNN", "resnet10a, resnet50, CaTDet"} {
		if !strings.Contains(out, row) {
			t.Errorf("output has no %q row:\n%s", row, out)
		}
	}
}
