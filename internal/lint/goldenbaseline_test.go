package lint

import (
	"slices"
	"sort"
	"testing"
)

// TestGoldenBaselineMatchesTree keeps goldenBaseline in step with the
// source: the non-omitempty golden fields of the serving books (the
// serve and cluster packages, plus control, which serve imports) must
// be exactly the map's keys. A field deleted from the tree must leave
// the map, and one added must be listed or made omitempty.
func TestGoldenBaselineMatchesTree(t *testing.T) {
	pkgs, err := Load("../..", []string{"./internal/serve", "./internal/serve/cluster"})
	if err != nil {
		t.Fatal(err)
	}
	tree := DumpGoldenBaseline(pkgs, DefaultConfig())
	var listed []string
	for k := range goldenBaseline {
		listed = append(listed, k)
	}
	sort.Strings(listed)
	for _, k := range tree {
		if !goldenBaseline[k] {
			t.Errorf("golden field %s is missing from goldenBaseline", k)
		}
	}
	for _, k := range listed {
		if !slices.Contains(tree, k) {
			t.Errorf("goldenBaseline lists %s, which the tree no longer has", k)
		}
	}
	if t.Failed() {
		t.Log("regenerate with: go run ./cmd/detlint -dump-golden-baseline")
	}
}
