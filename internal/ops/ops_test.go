package ops

import (
	"math"
	"sync"
	"testing"
)

func TestNetOpsSingleConv(t *testing.T) {
	n := Net{Layers: []Layer{{Kind: Conv, Kernel: 3, Stride: 1, InCh: 16, OutCh: 32}}}
	// 3*3*16*32*10*10 MACs * 2 ops
	want := 9.0 * 16 * 32 * 100 * OpsPerMAC
	if got := n.Ops(10, 10); got != want {
		t.Fatalf("Ops = %v, want %v", got, want)
	}
}

func TestNetOpsStrideShrinksSpatial(t *testing.T) {
	n := Net{Layers: []Layer{
		{Kind: Conv, Kernel: 3, Stride: 2, InCh: 3, OutCh: 8},
		{Kind: Conv, Kernel: 3, Stride: 1, InCh: 8, OutCh: 8},
	}}
	// First conv output is ceil(10/2)=5 -> 25 px for both layers.
	want := (9.0*3*8*25 + 9.0*8*8*25) * OpsPerMAC
	if got := n.Ops(10, 10); got != want {
		t.Fatalf("Ops = %v, want %v", got, want)
	}
}

func TestNetOpsFCIndependentOfSpatial(t *testing.T) {
	n := Net{Layers: []Layer{{Kind: FC, InCh: 100, OutCh: 10}}}
	if n.Ops(10, 10) != n.Ops(1000, 1000) {
		t.Fatal("FC ops should not depend on input size")
	}
	if got := n.Ops(5, 5); got != 100*10*OpsPerMAC {
		t.Fatalf("FC ops = %v", got)
	}
}

func TestNetOpsPoolingCostsNothing(t *testing.T) {
	n := Net{Layers: []Layer{{Kind: MaxPool, Kernel: 3, Stride: 2}}}
	if got := n.Ops(100, 100); got != 0 {
		t.Fatalf("pool ops = %v, want 0", got)
	}
}

func TestOutputStride(t *testing.T) {
	b := BuildSmallResNet(Table1Specs[0]) // resnet18
	if s := b.Trunk.OutputStride(); s != 16 {
		t.Fatalf("trunk stride = %d, want 16", s)
	}
	full := b.Trunk.Concat(b.Head)
	if s := full.OutputStride(); s != 32 {
		t.Fatalf("full stride = %d, want 32", s)
	}
}

func TestBackboneChannelsMatchTable1(t *testing.T) {
	for _, spec := range Table1Specs {
		b := BuildSmallResNet(spec)
		if got := b.Trunk.OutChannels(); got != spec.Blocks[2] {
			t.Errorf("%s trunk out channels = %d, want %d", spec.Name, got, spec.Blocks[2])
		}
		if got := b.Head.OutChannels(); got != spec.Blocks[3] {
			t.Errorf("%s head out channels = %d, want %d", spec.Name, got, spec.Blocks[3])
		}
	}
	r50 := BuildResNet50()
	if got := r50.Trunk.OutChannels(); got != 1024 {
		t.Errorf("resnet50 trunk channels = %d, want 1024", got)
	}
	if got := r50.Head.OutChannels(); got != 2048 {
		t.Errorf("resnet50 head channels = %d, want 2048", got)
	}
}

// After calibration the zoo must reproduce every published full-frame
// anchor exactly (they are the fit targets).
func TestZooReproducesPaperAnchors(t *testing.T) {
	for name, anchors := range paperAnchors {
		m := MustCostModel(name)
		for _, a := range anchors {
			got := Gops(m.FullFrameOps(a.W, a.H))
			want := a.Ops / Giga
			if math.Abs(got-want)/want > 1e-6 {
				t.Errorf("%s at %dx%d: %.2f Gops, want %.2f", name, a.W, a.H, got, want)
			}
		}
	}
}

// The ResNet-50 dual-anchor calibration implies a concrete split between
// area-dependent and proposal-dependent cost; verify the split is sane
// and that scaling to CityPersons resolution emerges from area scaling.
func TestResNet50DualAnchorSplit(t *testing.T) {
	m := MustCostModel("resnet50").(*FasterRCNN)
	feat := Gops(m.FeatureOps(KITTIWidth, KITTIHeight))
	head := Gops(m.HeadOps(DefaultProposals))
	if math.Abs(feat+head-254.3) > 0.1 {
		t.Fatalf("feat %.1f + head %.1f != 254.3", feat, head)
	}
	if feat <= 0 || head <= 0 {
		t.Fatalf("degenerate split: feat=%.1f head=%.1f", feat, head)
	}
	// Head cost per proposal should be well under the full feature cost
	// (300 proposals together are comparable to the trunk).
	per := Gops(m.HeadOpsPerProposal())
	if per <= 0 || per > 5 {
		t.Fatalf("per-proposal head cost %.2f Gops implausible", per)
	}
}

func TestRegionOpsScaling(t *testing.T) {
	m := MustCostModel("resnet50").(*FasterRCNN)
	full := m.FullFrameOps(KITTIWidth, KITTIHeight)
	// Full coverage with the default proposal count equals full frame.
	r := m.RegionOps(KITTIWidth, KITTIHeight, 1.0, DefaultProposals)
	if math.Abs(r-full)/full > 1e-9 {
		t.Fatalf("RegionOps(1.0, 300) = %v != full %v", r, full)
	}
	// Zero coverage and zero proposals cost nothing.
	if got := m.RegionOps(KITTIWidth, KITTIHeight, 0, 0); got != 0 {
		t.Fatalf("RegionOps(0,0) = %v", got)
	}
	// Cost is monotone in both coverage and proposals.
	prev := 0.0
	for _, f := range []float64{0.1, 0.3, 0.5, 0.9} {
		cur := m.RegionOps(KITTIWidth, KITTIHeight, f, 10)
		if cur <= prev {
			t.Fatalf("RegionOps not monotone in coverage at %v", f)
		}
		prev = cur
	}
	if m.RegionOps(KITTIWidth, KITTIHeight, 0.2, 10) >= m.RegionOps(KITTIWidth, KITTIHeight, 0.2, 50) {
		t.Fatal("RegionOps not monotone in proposals")
	}
	// Coverage outside [0,1] clamps.
	if m.RegionOps(KITTIWidth, KITTIHeight, 1.7, 0) != m.RegionOps(KITTIWidth, KITTIHeight, 1.0, 0) {
		t.Fatal("coverage > 1 not clamped")
	}
	if m.RegionOps(KITTIWidth, KITTIHeight, -0.5, 0) != 0 {
		t.Fatal("negative coverage not clamped")
	}
}

func TestRetinaNetRegionScalesEverything(t *testing.T) {
	m := MustCostModel("retinanet-res50")
	full := m.FullFrameOps(KITTIWidth, KITTIHeight)
	half := m.RegionOps(KITTIWidth, KITTIHeight, 0.5, 999)
	if math.Abs(half-full/2)/full > 1e-9 {
		t.Fatalf("RetinaNet half-coverage = %v, want %v", half, full/2)
	}
}

// Table 1's ordering must hold for the raw analytic models too (before
// calibration): bigger specs cost more.
func TestProposalNetOrderingUncalibrated(t *testing.T) {
	var prev float64 = math.Inf(1)
	for _, spec := range Table1Specs { // ordered 18, 10a, 10b, 10c
		m := NewFasterRCNN(BuildSmallResNet(spec))
		got := m.FullFrameOps(KITTIWidth, KITTIHeight)
		if got >= prev {
			t.Fatalf("%s analytic ops %.2e not smaller than previous %.2e", spec.Name, got, prev)
		}
		prev = got
	}
}

func TestUnknownModel(t *testing.T) {
	if _, err := NewCostModel("alexnet"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestModelNamesAllBuild(t *testing.T) {
	for _, name := range ModelNames() {
		m := MustCostModel(name)
		if ops := m.FullFrameOps(KITTIWidth, KITTIHeight); ops <= 0 {
			t.Errorf("%s full-frame ops = %v", name, ops)
		}
	}
}

func TestCalibrateSingleAnchorUniform(t *testing.T) {
	m := NewFasterRCNN(BuildSmallResNet(Table1Specs[1]))
	m.Calibrate([]OpsAnchor{{W: 100, H: 100, Ops: 1e9}})
	if got := m.FullFrameOps(100, 100); math.Abs(got-1e9) > 1 {
		t.Fatalf("calibrated ops = %v, want 1e9", got)
	}
}

func TestCalibrateNoAnchorsIdentity(t *testing.T) {
	m := NewFasterRCNN(BuildSmallResNet(Table1Specs[1]))
	before := m.FullFrameOps(100, 100)
	m.Calibrate(nil)
	if after := m.FullFrameOps(100, 100); after != before {
		t.Fatalf("no-anchor calibration changed ops %v -> %v", before, after)
	}
}

// FeatureOps remembers the first frame sizes it prices. Step workers
// share one cost model, so calls alternating the KITTI and CityPersons
// sizes from several goroutines, starting from an empty memo, must
// return bit for bit what an uncached trunk + RPN walk gives. A
// KITTI-wide CityPersons-high size differs in height only, and the
// further sizes outnumber the memo slots.
func TestFeatureOpsMemoMatchesWalk(t *testing.T) {
	m := NewFasterRCNN(BuildResNet50())
	m.featScale = 1.25
	sizes := [][2]int{
		{KITTIWidth, KITTIHeight}, {CityPersonsWidth, CityPersonsHeight}, {KITTIWidth, CityPersonsHeight},
		{640, 480}, {1920, 1080}, {320, 240}, {800, 600}, {1600, 900}, {2560, 1440},
	}
	want := make([]uint64, len(sizes))
	for i, s := range sizes {
		w, h := s[0], s[1]
		stride := m.Backbone.Trunk.OutputStride()
		walk := m.Backbone.Trunk.Ops(w, h) + m.rpn.Ops((w+stride-1)/stride, (h+stride-1)/stride)
		want[i] = math.Float64bits(walk * m.featScale)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				i := (g + k) % len(sizes)
				if got := math.Float64bits(m.FeatureOps(sizes[i][0], sizes[i][1])); got != want[i] {
					t.Errorf("goroutine %d call %d at %v: FeatureOps bits %x, walk %x", g, k, sizes[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// The memo holds uncalibrated ops, so calibrating a model whose memo is
// already filled still reproduces the anchors, bit for bit as a model
// calibrated before any other call.
func TestCalibrateAfterFeatureOpsMemo(t *testing.T) {
	anchors := paperAnchors["resnet50"]
	m := NewFasterRCNN(BuildResNet50())
	for _, a := range anchors {
		m.FeatureOps(a.W, a.H)
	}
	m.Calibrate(anchors)
	fresh := MustCostModel("resnet50")
	for _, a := range anchors {
		got := m.FullFrameOps(a.W, a.H)
		if math.Abs(got-a.Ops)/a.Ops > 1e-9 {
			t.Errorf("%dx%d: calibrated ops %v, anchor %v", a.W, a.H, got, a.Ops)
		}
		if want := fresh.FullFrameOps(a.W, a.H); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%dx%d: ops %v after a filled memo, %v without", a.W, a.H, got, want)
		}
	}
}
