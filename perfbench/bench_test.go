package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// declaration is the part of BENCHMARK.json the program must agree with.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// deterministic are the end-to-end metrics that must repeat exactly
// across runs of one seed.
var deterministic = []string{"map_hard", "md08_hard", "ops_saving_x", "modeled_p99_ms", "served_frac"}

// TestSmoke runs every workload BENCHMARK.json declares at smoke-test
// size, traced run included, twice with one seed. Each run must pass its
// correctness checks, print every declared metric with its declared
// unit, write its spans, and repeat the deterministic metrics exactly.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl declaration
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	sameDefs := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(names), len(defs))
		}
		for i, d := range defs {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, m := range decl.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	sameDefs("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range decl.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	sameDefs("per_layer", perLayer, names, units)

	for _, w := range decl.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			run, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("no runner for declared workload %q", w.Name)
			}
			var first map[string]float64
			for rep := 0; rep < 2; rep++ {
				spans := filepath.Join(t.TempDir(), "spans.csv")
				o := options{workload: w.Name, seed: 7, tiny: true, spans: spans}
				r, err := run(o)
				if err != nil {
					t.Fatal(err)
				}
				for _, trace := range []bool{false, true} {
					o.trace = trace
					out := report(o, r)
					if !out.Correct || out.Attempted < 1 {
						t.Errorf("trace=%v: correct=%v attempted=%d failed=%d: %v", trace, out.Correct, out.Attempted, out.Failed, r.failures)
					}
					defs := endToEnd
					if trace {
						defs = perLayer
					}
					if len(out.Metrics) != len(defs) {
						t.Errorf("trace=%v: %d metrics printed, %d declared", trace, len(out.Metrics), len(defs))
					}
					for _, d := range defs {
						if m, ok := out.Metrics[d.name]; !ok || m.Unit != d.unit {
							t.Errorf("trace=%v: metric %s printed as %+v, want unit %s", trace, d.name, m, d.unit)
						}
					}
				}
				if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
					t.Errorf("spans not written: %v", err)
				}
				if first == nil {
					first = r.e2e
					continue
				}
				for _, name := range deterministic {
					if r.e2e[name] != first[name] {
						t.Errorf("%s differs between runs of one seed: %v, then %v", name, first[name], r.e2e[name])
					}
				}
			}
		})
	}
}
