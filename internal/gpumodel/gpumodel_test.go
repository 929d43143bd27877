package gpumodel

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/ops"
)

func TestLaunchTimeLinear(t *testing.T) {
	m := Model{Alpha: 1e-12, LaunchOverhead: 1e-3}
	if got := m.LaunchTime(0); got != 1e-3 {
		t.Fatalf("zero-work launch = %v, want overhead only", got)
	}
	if got := m.LaunchTime(1e12); got != 1.001 {
		t.Fatalf("launch = %v, want 1.001", got)
	}
}

func TestSingleModelFrameMatchesTable7Anchor(t *testing.T) {
	m := Default()
	cost := ops.MustCostModel("resnet50")
	ft := m.SingleModelFrame(cost.FullFrameOps(ops.KITTIWidth, ops.KITTIHeight))
	// Table 7: GPU-only 0.159 s, Total 0.193 s. Allow 10% slack; these
	// are the calibration anchors.
	if ft.GPU < 0.14 || ft.GPU > 0.18 {
		t.Fatalf("single-model GPU time = %.3f, want ~0.159", ft.GPU)
	}
	if ft.Total < 0.17 || ft.Total > 0.22 {
		t.Fatalf("single-model total = %.3f, want ~0.193", ft.Total)
	}
}

func TestMergeNearbyRegions(t *testing.T) {
	m := Default()
	feat := featureOps(ops.KITTIWidth, ops.KITTIHeight, ops.MustCostModel("resnet50"))
	// Two adjacent small regions: merging saves a launch overhead at
	// almost no extra area.
	regions := []geom.Box{
		geom.NewBox(100, 100, 200, 200),
		geom.NewBox(210, 100, 310, 200),
	}
	merged := m.appendMerged(nil, regions, ops.KITTIWidth, ops.KITTIHeight, feat)
	if len(merged) != 1 {
		t.Fatalf("adjacent regions not merged: %v", merged)
	}
	// Two far-apart regions whose union would span most of the frame:
	// merging costs more feature extraction than a launch overhead.
	far := []geom.Box{
		geom.NewBox(0, 0, 120, 120),
		geom.NewBox(1100, 250, 1240, 370),
	}
	merged = m.appendMerged(nil, far, ops.KITTIWidth, ops.KITTIHeight, feat)
	if len(merged) != 2 {
		t.Fatalf("distant regions merged despite cost: %v", merged)
	}
}

func TestCaTDetFrameFasterThanSingle(t *testing.T) {
	m := Default()
	refCost := ops.MustCostModel("resnet50")
	propCost := ops.MustCostModel("resnet10a")
	regions := []geom.Box{
		geom.NewBox(100, 100, 260, 260),
		geom.NewBox(400, 150, 560, 300),
		geom.NewBox(800, 120, 980, 280),
	}
	ft := m.CaTDetFrame(propCost.FullFrameOps(ops.KITTIWidth, ops.KITTIHeight),
		regions, ops.KITTIWidth, ops.KITTIHeight, refCost, 10)
	single := m.SingleModelFrame(refCost.FullFrameOps(ops.KITTIWidth, ops.KITTIHeight))
	if ft.GPU >= single.GPU/2 {
		t.Fatalf("CaTDet GPU %.3f not well below single %.3f", ft.GPU, single.GPU)
	}
	if ft.Total >= single.Total {
		t.Fatalf("CaTDet total %.3f not below single %.3f", ft.Total, single.Total)
	}
	if ft.Launches < 1 || ft.Launches > len(regions) {
		t.Fatalf("launches = %d", ft.Launches)
	}
}

func TestMergedWorkloadAtLeastUnmerged(t *testing.T) {
	m := Default()
	cost := ops.MustCostModel("resnet50")
	regions := []geom.Box{
		geom.NewBox(100, 100, 200, 200),
		geom.NewBox(150, 150, 260, 260),
		geom.NewBox(700, 100, 820, 220),
	}
	ft := m.CaTDetFrame(0, regions, ops.KITTIWidth, ops.KITTIHeight, cost, 0)
	unmerged := 0.0
	for _, r := range regions {
		// Union area is smaller than the sum when boxes overlap, so use
		// the union-area workload as the floor.
		_ = r
	}
	unmerged = m.RegionWorkload(geom.NewBox(0, 0, 1, 1), ops.KITTIWidth, ops.KITTIHeight, cost, 0)
	if ft.MergedWorkload < unmerged {
		t.Fatalf("merged workload %.3e below any single region %.3e", ft.MergedWorkload, unmerged)
	}
}

// TestCaTDetFrameEmptyMergeChargesHead is the regression for the
// vanished-head bug: when no refinement region survives (or none was
// scheduled) while proposals still exist, the RoI-head work used to
// silently disappear from the frame price. It must now run as one
// zero-area, head-only launch.
func TestCaTDetFrameEmptyMergeChargesHead(t *testing.T) {
	m := Default()
	cost := ops.MustCostModel("resnet50")
	propOps := 1e9
	headOnly := cost.RegionOps(ops.KITTIWidth, ops.KITTIHeight, 0, 12)
	if headOnly <= 0 {
		t.Fatal("head-only workload is zero; the regression cannot discriminate")
	}
	cases := []struct {
		name         string
		regions      []geom.Box
		nProposals   int
		wantLaunches int
		wantWork     float64
	}{
		{"no regions, no proposals", nil, 0, 0, 0},
		{"no regions, proposals pending", nil, 12, 1, headOnly},
		{"one region, no proposals", []geom.Box{geom.NewBox(100, 100, 200, 200)}, 0, 1,
			m.RegionWorkload(geom.NewBox(100, 100, 200, 200), ops.KITTIWidth, ops.KITTIHeight, cost, 0)},
	}
	for _, tc := range cases {
		ft := m.CaTDetFrame(propOps, tc.regions, ops.KITTIWidth, ops.KITTIHeight, cost, tc.nProposals)
		if ft.Launches != tc.wantLaunches {
			t.Errorf("%s: launches = %d, want %d", tc.name, ft.Launches, tc.wantLaunches)
		}
		if ft.MergedWorkload != tc.wantWork {
			t.Errorf("%s: merged workload = %v, want %v", tc.name, ft.MergedWorkload, tc.wantWork)
		}
		wantGPU := m.LaunchTime(propOps)
		if tc.wantLaunches > 0 {
			wantGPU += m.LaunchTime(tc.wantWork)
		}
		if ft.GPU != wantGPU {
			t.Errorf("%s: GPU = %v, want %v", tc.name, ft.GPU, wantGPU)
		}
	}
	// The proposals-but-no-regions frame must cost strictly more than
	// the regionless, proposal-free one: the head work is charged.
	bare := m.CaTDetFrame(propOps, nil, ops.KITTIWidth, ops.KITTIHeight, cost, 0)
	withHead := m.CaTDetFrame(propOps, nil, ops.KITTIWidth, ops.KITTIHeight, cost, 12)
	if withHead.GPU <= bare.GPU {
		t.Errorf("pending proposals priced at %v, no more than the headless frame %v", withHead.GPU, bare.GPU)
	}
}

// TestBatchFrames pins the batched-launch pricing: alpha*SUM(W) + b —
// the per-launch constant paid once for the whole batch — plus the
// per-frame CPU overhead, which does not batch away.
func TestBatchFrames(t *testing.T) {
	m := Model{Alpha: 1e-12, LaunchOverhead: 5e-3}
	works := []float64{1e9, 2e9, 3e9}
	cpu := 0.01
	ft := m.BatchFrames(works, cpu)
	wantGPU := m.Alpha*6e9 + m.LaunchOverhead
	if ft.GPU != wantGPU {
		t.Fatalf("batch GPU = %v, want alpha*sum+b = %v", ft.GPU, wantGPU)
	}
	if ft.Total != wantGPU+3*cpu {
		t.Fatalf("batch total = %v, want GPU + 3 cpu overheads = %v", ft.Total, wantGPU+3*cpu)
	}
	if ft.Launches != 1 {
		t.Fatalf("batch launches = %d, want 1", ft.Launches)
	}

	// Amortization: a batch of k frames saves exactly (k-1) launch
	// overheads versus k separate single-frame launches.
	separate := 0.0
	for _, w := range works {
		separate += m.LaunchTime(w)
	}
	if got, want := separate-ft.GPU, 2*m.LaunchOverhead; math.Abs(got-want) > 1e-15 {
		t.Fatalf("batching saved %v, want (k-1)*b = %v", got, want)
	}

	// Empty batch: the degenerate launch costs b alone and no CPU.
	if got := m.BatchFrames(nil, cpu); got.GPU != m.LaunchOverhead || got.Total != m.LaunchOverhead {
		t.Fatalf("empty batch priced at %+v", got)
	}
}

func TestRegionWorkloadClamps(t *testing.T) {
	m := Default()
	cost := ops.MustCostModel("resnet50")
	full := m.RegionWorkload(geom.NewBox(0, 0, ops.KITTIWidth, ops.KITTIHeight), ops.KITTIWidth, ops.KITTIHeight, cost, 0)
	over := m.RegionWorkload(geom.NewBox(-100, -100, 2*ops.KITTIWidth, 2*ops.KITTIHeight), ops.KITTIWidth, ops.KITTIHeight, cost, 0)
	if over > full {
		t.Fatalf("oversized region workload %v exceeds full-frame %v", over, full)
	}
	if m.RegionWorkload(geom.NewBox(0, 0, 10, 10), 0, 0, cost, 0) != 0 {
		t.Fatal("degenerate frame should cost nothing")
	}
}

// TestFullCascadeFrame pins the highest-quality mode's pricing: the
// proposal pass plus one full-frame refinement launch, each paying its
// own launch overhead, with the CaTDet CPU overhead on top. It must
// sit strictly between proposal-only (the shed floor) and be costlier
// than the region-gated CaTDet frame it gives the gating up from.
func TestFullCascadeFrame(t *testing.T) {
	m := Default()
	prop := ops.MustCostModel("resnet10a").FullFrameOps(ops.KITTIWidth, ops.KITTIHeight)
	ref := ops.MustCostModel("resnet50").FullFrameOps(ops.KITTIWidth, ops.KITTIHeight)
	full := m.FullCascadeFrame(prop, ref)
	if want := m.LaunchTime(prop) + m.LaunchTime(ref); full.GPU != want {
		t.Fatalf("full-cascade GPU %.6f, want two separate launches %.6f", full.GPU, want)
	}
	if want := full.GPU + m.CPUOverheadCaTDet; full.Total != want {
		t.Fatalf("full-cascade total %.6f, want GPU + CaTDet CPU overhead %.6f", full.Total, want)
	}
	shed := m.ProposalOnlyFrame(prop)
	if full.Total <= shed.Total {
		t.Fatalf("full cascade %.4f not above proposal-only %.4f", full.Total, shed.Total)
	}
	gated := m.CaTDetFrame(prop, []geom.Box{geom.NewBox(100, 100, 260, 260)},
		ops.KITTIWidth, ops.KITTIHeight, ops.MustCostModel("resnet50"), 5)
	if full.Total <= gated.Total {
		t.Fatalf("full cascade %.4f not above region-gated CaTDet %.4f", full.Total, gated.Total)
	}
}

// refCaTDetFrame prices a frame by the plain Appendix I formula: regions
// merge under a cost that calls RegionWorkload per candidate, and each
// merged launch is priced by its own RegionWorkload.
func refCaTDetFrame(m Model, proposalOps float64, regions []geom.Box, frameW, frameH float64,
	refCost ops.CostModel, nProposals int) FrameTime {

	merged := geom.AppendGreedyMerge(nil, regions, func(b geom.Box) float64 {
		return m.LaunchTime(m.RegionWorkload(b, frameW, frameH, refCost, 0))
	})
	gpu := m.LaunchTime(proposalOps)
	work := 0.0
	for i, r := range merged {
		rois := 0
		if i == 0 {
			rois = nProposals
		}
		w := m.RegionWorkload(r, frameW, frameH, refCost, rois)
		work += w
		gpu += m.LaunchTime(w)
	}
	launches := len(merged)
	if len(merged) == 0 && nProposals > 0 && frameW > 0 && frameH > 0 {
		w := refCost.RegionOps(int(frameW), int(frameH), 0, nProposals)
		work += w
		gpu += m.LaunchTime(w)
		launches = 1
	}
	return FrameTime{GPU: gpu, Total: gpu + m.CPUOverheadCaTDet, Launches: launches, MergedWorkload: work}
}

// CaTDetFrame reads the full-frame feature ops once and prices each
// merged launch as feat*frac + RegionOps(w, h, 0, rois). Over seeded
// random region sets — empty ones with pending proposals (the head-only
// launch), frames without area, and regions reaching past the frame
// included — that must equal the per-region formula bit for bit.
func TestCaTDetFrameMatchesRegionWorkload(t *testing.T) {
	m := Default()
	rng := rand.New(rand.NewSource(17))
	frames := [][2]float64{
		{ops.KITTIWidth, ops.KITTIHeight},
		{ops.CityPersonsWidth, ops.CityPersonsHeight},
		{0, ops.KITTIHeight},
	}
	for _, name := range []string{"resnet50", "vgg16", "retinanet-res50"} {
		cost := ops.MustCostModel(name)
		for trial := 0; trial < 300; trial++ {
			f := frames[trial%len(frames)]
			regions := make([]geom.Box, rng.Intn(40))
			for i := range regions {
				x, y := rng.Float64()*f[0]*1.1-40, rng.Float64()*f[1]*1.1-20
				regions[i] = geom.NewBox(x, y, x+20+rng.Float64()*220, y+20+rng.Float64()*160)
			}
			nProps := rng.Intn(3) * rng.Intn(150)
			got := m.CaTDetFrame(1e9, regions, f[0], f[1], cost, nProps)
			want := refCaTDetFrame(m, 1e9, regions, f[0], f[1], cost, nProps)
			if math.Float64bits(got.GPU) != math.Float64bits(want.GPU) ||
				math.Float64bits(got.Total) != math.Float64bits(want.Total) ||
				math.Float64bits(got.MergedWorkload) != math.Float64bits(want.MergedWorkload) ||
				got.Launches != want.Launches {
				t.Fatalf("%s trial %d (%d regions, %d proposals, %vx%v): %+v, reference %+v",
					name, trial, len(regions), nProps, f[0], f[1], got, want)
			}
		}
	}
}

// benchRegions returns 12 seeded refinement regions on a KITTI frame.
func benchRegions() []geom.Box {
	rng := rand.New(rand.NewSource(3))
	regions := make([]geom.Box, 12)
	for i := range regions {
		x, y := rng.Float64()*1200, rng.Float64()*340
		regions[i] = geom.NewBox(x, y, x+60+rng.Float64()*160, y+40+rng.Float64()*100)
	}
	return regions
}

// Pricing a frame merges into a stack buffer and reads the warm
// feature-ops memo, so it does not allocate.
func TestCaTDetFrameAllocFree(t *testing.T) {
	m := Default()
	cost := ops.MustCostModel("resnet50")
	regions := benchRegions()
	price := func() { m.CaTDetFrame(1e9, regions, ops.KITTIWidth, ops.KITTIHeight, cost, 40) }
	price()
	if a := testing.AllocsPerRun(50, price); a != 0 {
		t.Fatalf("CaTDetFrame allocs = %v, want 0", a)
	}
}

var frameSink FrameTime

// BenchmarkCaTDetFrame prices a KITTI frame of 12 refinement regions.
// Once the refinement model's feature-ops memo is warm it must not
// allocate.
func BenchmarkCaTDetFrame(b *testing.B) {
	m := Default()
	cost := ops.MustCostModel("resnet50")
	regions := benchRegions()
	frameSink = m.CaTDetFrame(1e9, regions, ops.KITTIWidth, ops.KITTIHeight, cost, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frameSink = m.CaTDetFrame(1e9, regions, ops.KITTIWidth, ops.KITTIHeight, cost, 40)
	}
}

// Validate accepts finite, non-negative parameters (zero included) and
// names the first field that is NaN, infinite or negative.
func TestModelValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default model rejected: %v", err)
	}
	if err := (Model{}).Validate(); err != nil {
		t.Fatalf("all-zero model rejected: %v", err)
	}
	for _, tier := range TierNames() {
		tr, _ := TierByName(tier)
		if err := tr.Model().Validate(); err != nil {
			t.Errorf("tier %s model rejected: %v", tier, err)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		spoil func(*Model)
		field string
	}{
		{func(m *Model) { m.Alpha = nan }, "Alpha"},
		{func(m *Model) { m.Alpha = -1e-13 }, "Alpha"},
		{func(m *Model) { m.LaunchOverhead = -0.2 }, "LaunchOverhead"},
		{func(m *Model) { m.LaunchOverhead = inf }, "LaunchOverhead"},
		{func(m *Model) { m.CPUOverheadSingle = -inf }, "CPUOverheadSingle"},
		{func(m *Model) { m.CPUOverheadCaTDet = nan }, "CPUOverheadCaTDet"},
	}
	for _, tc := range cases {
		m := Default()
		tc.spoil(&m)
		err := m.Validate()
		if err == nil || !strings.HasPrefix(err.Error(), tc.field+": ") {
			t.Errorf("%+v: error %v, want one rooted at %s", m, err, tc.field)
		}
	}
}
