package main

import (
	"io"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/serve
cpu: AMD EPYC 7B13
BenchmarkServeOverload  	       3	 4504965 ns/op	       76.11 drop_pct	 1812085 B/op	   12121 allocs/op
BenchmarkServeSteady/fifo-8     	     100	   52104 ns/op	    9200 B/op	      80 allocs/op
BenchmarkNoMem          	     500	    1000 ns/op
BenchmarkServeSteady
garbage line
PASS
ok  	repro/internal/serve	1.2s
`

func parseSample(t *testing.T, text string) map[string]span {
	t.Helper()
	runs, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// TestParseText pins the text parser: allocs/op is read past custom
// metrics and B/op, while lines without it (no -benchmem, a bare name
// echoed by -v, test chatter) are skipped.
func TestParseText(t *testing.T) {
	runs := parseSample(t, sample)
	if len(runs) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(runs), runs)
	}
	if s := runs["BenchmarkServeOverload"]; s != (span{12121, 12121}) {
		t.Errorf("allocs/op after a custom metric: %+v", s)
	}
	if s := runs["BenchmarkServeSteady/fifo-8"]; s != (span{80, 80}) {
		t.Errorf("allocs/op of a suffixed sub-benchmark: %+v", s)
	}
	if _, err := parse(strings.NewReader("BenchmarkX 1 5 ns/op x allocs/op\n")); err == nil {
		t.Error("malformed allocs/op value parsed without error")
	}
}

// TestDiffGates pins the regression gate on -GOMAXPROCS-suffixed names
// as `go test` prints them on a multi-core host: an extra allocation
// fails, an unchanged or shrinking count passes, and benchmarks present
// on one side only are ignored.
func TestDiffGates(t *testing.T) {
	base := parseSample(t, "BenchmarkA-2 3 10 ns/op 80 allocs/op\nBenchmarkB-2 3 10 ns/op 50 allocs/op\nBenchmarkGone-2 3 10 ns/op 1 allocs/op\n")
	head := parseSample(t, "BenchmarkA-2 3 99 ns/op 81 allocs/op\nBenchmarkB-2 3 10 ns/op 40 allocs/op\nBenchmarkNew-2 3 10 ns/op 9 allocs/op\n")
	regs, matched := diff(base, head)
	if matched != 2 {
		t.Errorf("matched %d benchmarks, want 2", matched)
	}
	if len(regs) != 1 || regs[0].name != "BenchmarkA-2" {
		t.Fatalf("want one regression on BenchmarkA-2, got %+v", regs)
	}
	if regs, _ := diff(base, base); len(regs) != 0 {
		t.Errorf("self-diff found regressions: %+v", regs)
	}
}

// TestDiffAllocsJitterGuard pins the gate tolerance: a few-allocation
// wobble on a benchmark with hundreds of thousands of allocs/op
// (goroutine scheduling jitter in the fan-out benchmarks) is forgiven,
// while growth beyond 0.1% — and a single extra allocation on a
// small-count hot-path benchmark — still fails.
func TestDiffAllocsJitterGuard(t *testing.T) {
	base := parseSample(t, "BenchmarkBig 1 1000 ns/op 777350 allocs/op\nBenchmarkHot 100 50 ns/op 16 allocs/op\n")

	jitter := parseSample(t, "BenchmarkBig 1 1000 ns/op 777352 allocs/op\nBenchmarkHot 100 50 ns/op 16 allocs/op\n")
	if regs, _ := diff(base, jitter); len(regs) != 0 {
		t.Errorf("scheduling jitter (+2 in 777k allocs) failed the gate: %+v", regs)
	}

	grown := parseSample(t, "BenchmarkBig 1 1000 ns/op 779000 allocs/op\nBenchmarkHot 100 50 ns/op 17 allocs/op\n")
	regs, _ := diff(base, grown)
	if len(regs) != 2 || regs[0].name != "BenchmarkBig" || regs[1].name != "BenchmarkHot" {
		t.Fatalf("want regressions on BenchmarkBig (+0.2%%) and BenchmarkHot (+1), got %+v", regs)
	}
}

// TestDiffMinOfCounts pins duplicate folding on the head side: reruns
// compare by their minimum, so one noisy rerun cannot fail the gate.
func TestDiffMinOfCounts(t *testing.T) {
	base := parseSample(t, "BenchmarkX 10 1000 ns/op 5 allocs/op\n")
	head := parseSample(t, "BenchmarkX 10 5000 ns/op 9 allocs/op\nBenchmarkX 10 1050 ns/op 5 allocs/op\n")
	if regs, _ := diff(base, head); len(regs) != 0 {
		t.Errorf("head reruns not folded to their minimum: %+v", regs)
	}
}

// TestDiffBaseSpread pins the bound to the base's own spread.
// allocs/op is floor(mallocs/N), so three identical-code runs at N = 3
// can read 123, 123 and 122; a head reading 123 throughout is the same
// code and must pass, where a min-versus-min rule would fail it.
// Against a base whose runs agree, one extra allocation still fails:
// the hot-path case the gate exists for.
func TestDiffBaseSpread(t *testing.T) {
	base := parseSample(t, strings.Repeat("BenchmarkTable1ProposalNetOps-2 3 10 ns/op 123 allocs/op\n", 2)+
		"BenchmarkTable1ProposalNetOps-2 3 10 ns/op 122 allocs/op\n")
	same := parseSample(t, strings.Repeat("BenchmarkTable1ProposalNetOps-2 3 10 ns/op 123 allocs/op\n", 3))
	if regs, _ := diff(base, same); len(regs) != 0 {
		t.Errorf("identical code inside the base spread failed the gate: %+v", regs)
	}

	agreed := parseSample(t, strings.Repeat("BenchmarkServeCaTDet-2 3 10 ns/op 40 allocs/op\n", 3))
	plusOne := parseSample(t, strings.Repeat("BenchmarkServeCaTDet-2 3 10 ns/op 41 allocs/op\n", 3))
	regs, _ := diff(agreed, plusOne)
	if len(regs) != 1 || regs[0].name != "BenchmarkServeCaTDet-2" {
		t.Errorf("+1 alloc against an agreeing base not gated: %+v", regs)
	}
}

// TestGateNothingMatched pins the empty-intersection failure: two
// outputs that share no benchmark (or carry no allocs/op at all) are a
// broken setup, not a pass.
func TestGateNothingMatched(t *testing.T) {
	for _, tc := range []struct{ name, base, head string }{
		{"disjoint", "BenchmarkA-2 3 10 ns/op 1 allocs/op\n", "BenchmarkB-2 3 10 ns/op 1 allocs/op\n"},
		{"no-benchmem", "BenchmarkA-2 3 10 ns/op\n", "BenchmarkA-2 3 10 ns/op\n"},
		{"empty", "", ""},
	} {
		if err := gate(io.Discard, strings.NewReader(tc.base), strings.NewReader(tc.head)); err == nil {
			t.Errorf("%s: gate passed with nothing matched", tc.name)
		}
	}
	if err := gate(io.Discard, strings.NewReader(sample), strings.NewReader(sample)); err != nil {
		t.Errorf("self-gate failed: %v", err)
	}
}
