// Command benchdiff is the allocation gate behind `make bench-diff`. It
// compares two `go test -bench -benchmem` outputs recorded on the same
// host — the parent commit's and the working tree's — and fails when a
// benchmark's allocs/op grew.
//
// Repeated lines of one benchmark (-count reruns, or several passes
// appended to one file) fold into their allocs/op range. A benchmark
// fails when the head's minimum exceeds the base's maximum by more than
// a 0.1% scheduling-jitter guard, so the bound is the base's own
// spread. Benchmarks present on one side only are ignored; no
// benchmark in common is an error. Speed is not gated here: ns/op
// moves by tens of percent between identical runs on one host, and
// perfbench judges speed.
//
// Usage:
//
//	benchdiff bench_base.txt bench_head.txt
package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

// allocsJitter is the fractional tolerance of the allocs/op gate.
// Allocation counts are machine-independent but not perfectly
// schedule-independent: benchmarks that fan work across goroutines
// (the parallel engine, step workers) grow per-worker scratch in an
// order that varies run to run, moving totals by a few parts per
// million. 0.1% forgives that jitter while keeping the gate exact
// where it matters — on a hot-path benchmark with a few hundred
// allocs/op, a single extra allocation still fails.
const allocsJitter = 0.001

// span is the allocs/op range of one benchmark over its reruns.
type span struct{ min, max float64 }

// parse reads `go test -bench` output and folds each benchmark's
// allocs/op into its range, keyed by the name as printed (sub-benchmark
// and GOMAXPROCS suffix included). -benchmem prints allocs/op as a
// result line's last column; lines without it — test chatter,
// pkg/PASS/ok, runs without -benchmem — are skipped.
func parse(r io.Reader) (map[string]span, error) {
	runs := map[string]span{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		n := len(fields)
		if n < 4 || !strings.HasPrefix(fields[0], "Benchmark") || fields[n-1] != "allocs/op" {
			continue
		}
		v, err := strconv.ParseFloat(fields[n-2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad allocs/op value %q on line %q", fields[n-2], sc.Text())
		}
		s, ok := runs[fields[0]]
		if !ok {
			s = span{v, v}
		}
		s.min, s.max = min(s.min, v), max(s.max, v)
		runs[fields[0]] = s
	}
	return runs, sc.Err()
}

// regression is one benchmark whose allocs/op grew past the base.
type regression struct {
	name       string
	base, head span
}

func (r regression) String() string {
	return fmt.Sprintf("FAIL  %-55s allocs/op %.0f..%.0f -> %.0f..%.0f",
		r.name, r.base.min, r.base.max, r.head.min, r.head.max)
}

// diff gates head against base over the benchmarks both runs share,
// sorted by name: a benchmark regresses when its head minimum exceeds
// its base maximum by more than allocsJitter. matched counts the
// shared benchmarks.
func diff(base, head map[string]span) (regs []regression, matched int) {
	names := make([]string, 0, len(head))
	for name := range head {
		if _, ok := base[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b, h := base[name], head[name]
		if h.min > b.max*(1+allocsJitter) {
			regs = append(regs, regression{name, b, h})
		}
	}
	return regs, len(names)
}

// gate parses both outputs, prints every regression and a summary to
// w, and returns an error when a benchmark regressed or none matched.
func gate(w io.Writer, base, head io.Reader) error {
	b, err := parse(base)
	if err != nil {
		return fmt.Errorf("base: %w", err)
	}
	h, err := parse(head)
	if err != nil {
		return fmt.Errorf("head: %w", err)
	}
	regs, matched := diff(b, h)
	if matched == 0 {
		return fmt.Errorf("no benchmark with allocs/op appears in both base (%d) and head (%d)", len(b), len(h))
	}
	for _, r := range regs {
		fmt.Fprintln(w, r)
	}
	fmt.Fprintf(w, "benchdiff: %d benchmarks compared, %d allocs/op regressions\n", matched, len(regs))
	if len(regs) > 0 {
		return fmt.Errorf("%d benchmarks allocate more than the base", len(regs))
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	if len(os.Args) != 3 {
		log.Fatal("usage: benchdiff BASE HEAD (two `go test -bench -benchmem` outputs)")
	}
	base, err := os.Open(os.Args[1])
	if err != nil {
		log.Fatal(err)
	}
	defer base.Close()
	head, err := os.Open(os.Args[2])
	if err != nil {
		log.Fatal(err)
	}
	defer head.Close()
	if err := gate(os.Stdout, base, head); err != nil {
		log.Fatal(err)
	}
}
