package ops

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/video"
)

// The zoo hands out one calibrated model per name: repeated calls
// return the same instance, concurrent first calls on a fresh table
// agree on one instance, and each name's model is its own — priced bit
// for bit like a privately built and calibrated model of that name, so
// no entry captured another name's constructor.
func TestCostModelShared(t *testing.T) {
	for _, name := range ModelNames() {
		if a, b := MustCostModel(name), MustCostModel(name); a != b {
			t.Errorf("%s: two calls returned different models", name)
		}
	}

	z := newZoo()
	const goroutines = 8
	got := make([]map[string]CostModel, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make(map[string]CostModel)
		wg.Add(1)
		go func(m map[string]CostModel) {
			defer wg.Done()
			for _, name := range ModelNames() {
				m[name] = z[name]()
			}
		}(got[g])
	}
	wg.Wait()

	seen := make(map[CostModel]string)
	for _, name := range ModelNames() {
		m := got[0][name]
		for g := 1; g < goroutines; g++ {
			if got[g][name] != m {
				t.Errorf("%s: goroutine %d got a different instance than goroutine 0", name, g)
			}
		}
		if other, dup := seen[m]; dup {
			t.Errorf("%s and %s share one model", name, other)
		}
		seen[m] = name
		fresh := buildCostModel(name)
		for _, a := range paperAnchors[name] {
			ops := m.FullFrameOps(a.W, a.H)
			if want := fresh.FullFrameOps(a.W, a.H); math.Float64bits(ops) != math.Float64bits(want) {
				t.Errorf("%s at %dx%d: shared model %v, private model %v", name, a.W, a.H, ops, want)
			}
			if math.Abs(ops-a.Ops)/a.Ops > 1e-9 {
				t.Errorf("%s at %dx%d: %v ops, anchor %v", name, a.W, a.H, ops, a.Ops)
			}
		}
	}
}

// Once models are shared process-wide, one FeatureOps memo serves every
// preset a process runs. It must hold every registered preset's frame
// size next to the calibration anchors, whichever order the sizes are
// first priced in: pricing them forwards and then backwards claims no
// slot on the second pass, and every size sits in a filled slot.
func TestPresetSizesHitSharedMemo(t *testing.T) {
	var sizes [][2]int
	for _, name := range video.PresetNames() {
		p, err := video.PresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s := [2]int{p.Width, p.Height}; !slices.Contains(sizes, s) {
			sizes = append(sizes, s)
		}
	}
	for _, name := range ModelNames() {
		m, ok := MustCostModel(name).(*FasterRCNN)
		if !ok {
			continue // RetinaNet keeps no memo
		}
		for _, s := range sizes {
			m.FullFrameOps(s[0], s[1])
		}
		used := m.featUsed.Load()
		for i := len(sizes) - 1; i >= 0; i-- {
			m.FullFrameOps(sizes[i][0], sizes[i][1])
		}
		if n := m.featUsed.Load(); n != used {
			t.Errorf("%s: reversed pass claimed %d more memo slots", name, n-used)
		}
		for _, s := range sizes {
			if !memoHolds(m, s[0], s[1]) {
				t.Errorf("%s: %dx%d is not in the FeatureOps memo (%d slots)", name, s[0], s[1], featureMemos)
			}
		}
	}
}

// memoHolds reports whether a filled memo slot of m holds size w x h.
func memoHolds(m *FasterRCNN, w, h int) bool {
	for i := range m.feat {
		if m.featReady[i].Load() && m.feat[i].w == w && m.feat[i].h == h {
			return true
		}
	}
	return false
}
