package main

import (
	"bytes"
	"flag"
	"path/filepath"
	"strings"
	"testing"
)

// runOut drives run and returns its stdout, failing the test on error.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %q: %v", args, err)
	}
	return out.String()
}

// TestSaveThenDataMatchesPreset pins the -save/-data round trip: a
// world frozen by -save and run by -system -data prints the same bytes
// as -system on the generated world itself.
func TestSaveThenDataMatchesPreset(t *testing.T) {
	world := []string{"-preset", "mini", "-seqs", "1", "-seed", "3"}
	path := filepath.Join(t.TempDir(), "world.json.gz")
	if out := runOut(t, append([]string{"-save", path}, world...)...); !strings.HasPrefix(out, "wrote "+path+": 1 sequences, 120 frames") {
		t.Errorf("-save printed %q", out)
	}
	fromFile := runOut(t, "-system", "catdet", "-data", path, "-workers", "1")
	generated := runOut(t, append([]string{"-system", "catdet", "-workers", "1"}, world...)...)
	if fromFile != generated {
		t.Errorf("-data run differs from the generated world's run:\n%s\nvs\n%s", fromFile, generated)
	}
	if !strings.Contains(generated, "system:        resnet10a, resnet50, CaTDet\n") || !strings.Contains(generated, "mAP:") {
		t.Errorf("-system report lacks its headline rows:\n%s", generated)
	}
}

func TestInspectPrintsCalibratedTotal(t *testing.T) {
	out := runOut(t, "-inspect", "resnet50")
	if !strings.Contains(out, "\ncalibrated full-frame total: ") || !strings.Contains(out, "Gops (KITTI, 300 proposals)\n") {
		t.Errorf("-inspect resnet50 lacks the calibrated-total line:\n%s", out)
	}
}

// TestRejectsConflictingFlags pins that two modes, a mode with a
// tables-only flag, and a mode-only flag without its mode each fail
// with one message before any work starts.
func TestRejectsConflictingFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-system", "catdet", "-inspect", "resnet50"},
		{"-system", "catdet", "-save", "x.json"},
		{"-inspect", "resnet50", "-save", "x.json"},
		{"-system", "catdet", "-table", "2"},
		{"-system", "catdet", "-figure", "6"},
		{"-system", "catdet", "-ablations"},
		{"-system", "catdet", "-json", "x.json"},
		{"-system", "catdet", "-city-seqs", "3"},
		{"-inspect", "resnet50", "-table", "2"},
		{"-inspect", "resnet50", "-seed", "2"},
		{"-save", "x.json", "-json", "y.json"},
		{"-save", "x.json", "-workers", "2"},
		{"-data", "x.json"},
		{"-preset", "mini"},
		{"-frames", "40"},
		{"-system", "catdet", "-frames", "40"},
		{"-system", "catdet", "-data", "x.json", "-preset", "mini"},
		{"-system", "catdet", "-data", "x.json", "-seed", "2"},
		{"-table", "2", "stray"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil {
			t.Errorf("run %q: accepted", args)
			continue
		}
		if strings.Contains(err.Error(), "\n") || out.Len() > 0 {
			t.Errorf("run %q: want one message and no output, got %q and %q", args, err, out.String())
		}
	}
}

func TestUnknownNamesAreErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-system", "catdet", "-preset", "mini", "-difficulty", "extreme"},
		{"-system", "catdet", "-preset", "dashcam"},
		{"-system", "catdet", "-preset", "mini", "-seqs", "1", "-refinement", "resnet99"},
		{"-system", "bogus", "-preset", "mini", "-seqs", "1"},
		{"-save", filepath.Join(t.TempDir(), "x.json"), "-preset", "dashcam"},
		{"-inspect", "resnet99"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run %q: accepted", args)
		}
	}
}

// TestModesNameOnlyFlags pins that each defined flag is read by some
// mode, that each mode reads only defined flags, and that the one
// offline command keeps to 20 flags.
func TestModesNameOnlyFlags(t *testing.T) {
	fs := newFlags(&options{})
	read := map[string]bool{}
	for _, md := range modes {
		for _, name := range md.flags {
			if name != "" && fs.Lookup(name) == nil {
				t.Errorf("a mode reads the undefined flag -%s", name)
			}
			read[name] = true
		}
	}
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if !read[f.Name] {
			t.Errorf("no mode reads -%s", f.Name)
		}
	})
	if n > 20 {
		t.Errorf("%d flags, want at most 20", n)
	}
}
