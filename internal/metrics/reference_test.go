package metrics_test

// A differential test of the one-pass matcher. The reference below is
// the three-pass evaluation the matcher replaced, kept verbatim in
// substance: Collect pools per-class records with one greedy match per
// (frame, class), CollectTracks repeats the match to record per-track
// scores in a map, and the AP, the Eq. 5 threshold, the mean delay and
// the Figure 7 curves are computed from those with copy-and-sort
// indexes. Every quantity the package and the sim harness report must
// equal the reference bit for bit, on generated worlds run through the
// paper's five Table 2 systems and on a small hand-built world full of
// score ties and edge cases.

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/video"
)

// refRecord is one scored detection's evaluation outcome for a class.
type refRecord struct {
	Score float64
	TP    bool
}

// refRecords pools one class's records and ground-truth count at one
// difficulty.
type refRecords struct {
	Class   dataset.Class
	Records []refRecord
	NumGT   int
}

// refMatchFrame is the reference greedy match of one labeled frame for
// one class: records for the AP pool.
func refMatchFrame(objects []dataset.Object, dets []geom.Scored, class dataset.Class,
	diff dataset.Difficulty, thresh float64, out *refRecords) {

	var eligible, ignored []dataset.Object
	for _, o := range objects {
		if o.Class != class {
			continue
		}
		if diff.Eligible(o) {
			eligible = append(eligible, o)
		} else {
			ignored = append(ignored, o)
		}
	}
	out.NumGT += len(eligible)

	var cls []geom.Scored
	for _, d := range dets {
		if d.Class == int(class) {
			cls = append(cls, d)
		}
	}
	sort.SliceStable(cls, func(i, j int) bool { return cls[i].Score > cls[j].Score })

	matched := make([]bool, len(eligible))
	for _, d := range cls {
		best, bestIoU := -1, 0.0
		for i, o := range eligible {
			if matched[i] {
				continue
			}
			if iou := geom.IoU(d.Box, o.Box); iou > bestIoU {
				best, bestIoU = i, iou
			}
		}
		if best >= 0 && bestIoU >= thresh {
			matched[best] = true
			out.Records = append(out.Records, refRecord{Score: d.Score, TP: true})
			continue
		}
		dontCare := false
		for _, o := range ignored {
			if geom.IoU(d.Box, o.Box) >= thresh/2 {
				dontCare = true
				break
			}
		}
		if dontCare {
			continue
		}
		if d.Box.Height() < diff.MinHeight() {
			continue
		}
		out.Records = append(out.Records, refRecord{Score: d.Score, TP: false})
	}
}

// refCollect pools the per-frame records of every class at each class's
// KITTI threshold.
func refCollect(ds *dataset.Dataset, dets metrics.Detections, diff dataset.Difficulty) map[dataset.Class]*refRecords {
	out := map[dataset.Class]*refRecords{}
	for _, c := range ds.Classes {
		out[c] = &refRecords{Class: c}
	}
	for si := range ds.Sequences {
		seq := &ds.Sequences[si]
		frames := dets[seq.ID]
		for fi := range seq.Frames {
			if !seq.Frames[fi].Labeled {
				continue
			}
			var fd []geom.Scored
			if frames != nil && fi < len(frames) {
				fd = frames[fi]
			}
			for _, c := range ds.Classes {
				refMatchFrame(seq.Frames[fi].Objects, fd, c, diff, c.MatchIoU(), out[c])
			}
		}
	}
	return out
}

// refPRCurve and refAP are the copy-and-sort AP of the pooled records.
func refPRCurve(r *refRecords) []metrics.PRPoint {
	if len(r.Records) == 0 || r.NumGT == 0 {
		return nil
	}
	recs := append([]refRecord(nil), r.Records...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Score > recs[j].Score })
	var out []metrics.PRPoint
	tp, fp := 0, 0
	for i, rec := range recs {
		if rec.TP {
			tp++
		} else {
			fp++
		}
		if i+1 < len(recs) && recs[i+1].Score == rec.Score {
			continue
		}
		out = append(out, metrics.PRPoint{
			Threshold: rec.Score,
			Precision: float64(tp) / float64(tp+fp),
			Recall:    float64(tp) / float64(r.NumGT),
		})
	}
	return out
}

func refAP(r *refRecords) float64 {
	curve := refPRCurve(r)
	if curve == nil {
		return 0
	}
	sum := 0.0
	for i := 0; i <= 10; i++ {
		target := float64(i) / 10
		best := 0.0
		for _, p := range curve {
			if p.Recall >= target && p.Precision > best {
				best = p.Precision
			}
		}
		sum += best
	}
	return sum / 11
}

// refTrack is the reference track observation, scores keyed by frame.
type refTrack struct {
	class         dataset.Class
	firstEligible int
	lastFrame     int
	frameScores   map[int]float64
}

func (tr *refTrack) delayAt(t float64) float64 {
	for f := tr.firstEligible; f <= tr.lastFrame; f++ {
		if s, ok := tr.frameScores[f]; ok && s >= t {
			return float64(f - tr.firstEligible)
		}
	}
	return float64(tr.lastFrame - tr.firstEligible + 1)
}

// refCollectTracks is the second matching pass: per-track best scores.
func refCollectTracks(ds *dataset.Dataset, dets metrics.Detections, diff dataset.Difficulty) []*refTrack {
	var out []*refTrack
	for si := range ds.Sequences {
		seq := &ds.Sequences[si]
		frames := dets[seq.ID]
		byID := map[int]*refTrack{}
		var order []int
		for fi := range seq.Frames {
			if !seq.Frames[fi].Labeled {
				continue
			}
			for _, o := range seq.Frames[fi].Objects {
				tr, ok := byID[o.TrackID]
				if !ok {
					tr = &refTrack{class: o.Class, firstEligible: -1, frameScores: map[int]float64{}}
					byID[o.TrackID] = tr
					order = append(order, o.TrackID)
				}
				tr.lastFrame = fi
				if tr.firstEligible < 0 && diff.Eligible(o) {
					tr.firstEligible = fi
				}
			}
			var fd []geom.Scored
			if frames != nil && fi < len(frames) {
				fd = frames[fi]
			}
			for _, c := range ds.Classes {
				refMatchTracksInFrame(seq.Frames[fi].Objects, fd, c, diff, fi, byID)
			}
		}
		for _, id := range order {
			out = append(out, byID[id])
		}
	}
	return out
}

func refMatchTracksInFrame(objects []dataset.Object, dets []geom.Scored, class dataset.Class,
	diff dataset.Difficulty, frame int, byID map[int]*refTrack) {

	var eligible []dataset.Object
	for _, o := range objects {
		if o.Class == class && diff.Eligible(o) {
			eligible = append(eligible, o)
		}
	}
	if len(eligible) == 0 {
		return
	}
	var cls []geom.Scored
	for _, d := range dets {
		if d.Class == int(class) {
			cls = append(cls, d)
		}
	}
	sort.SliceStable(cls, func(i, j int) bool { return cls[i].Score > cls[j].Score })
	matched := make([]bool, len(eligible))
	thresh := class.MatchIoU()
	for _, d := range cls {
		best, bestIoU := -1, 0.0
		for i, o := range eligible {
			if matched[i] {
				continue
			}
			if iou := geom.IoU(d.Box, o.Box); iou > bestIoU {
				best, bestIoU = i, iou
			}
		}
		if best >= 0 && bestIoU >= thresh {
			matched[best] = true
			tr := byID[eligible[best].TrackID]
			if s, ok := tr.frameScores[frame]; !ok || d.Score > s {
				tr.frameScores[frame] = d.Score
			}
		}
	}
}

// refMeanDelay averages the entry delay at t per class over the
// evaluable tracks, then over classes.
func refMeanDelay(tracks []*refTrack, classes []dataset.Class, t float64) (float64, map[dataset.Class]float64) {
	sums := map[dataset.Class]float64{}
	counts := map[dataset.Class]int{}
	for _, tr := range tracks {
		if tr.firstEligible < 0 {
			continue
		}
		sums[tr.class] += tr.delayAt(t)
		counts[tr.class]++
	}
	perClass := map[dataset.Class]float64{}
	total, n := 0.0, 0
	for _, c := range classes {
		if counts[c] == 0 {
			continue
		}
		perClass[c] = sums[c] / float64(counts[c])
		total += perClass[c]
		n++
	}
	if n == 0 {
		return math.NaN(), perClass
	}
	return total / float64(n), perClass
}

// refIndex is the reference per-class precision index.
type refIndex struct {
	scores []float64
	cumTP  []int
	numGT  int
}

func newRefIndex(r *refRecords) *refIndex {
	recs := append([]refRecord(nil), r.Records...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Score > recs[j].Score })
	ci := &refIndex{numGT: r.NumGT, scores: make([]float64, len(recs)), cumTP: make([]int, len(recs)+1)}
	for i, rec := range recs {
		ci.scores[i] = rec.Score
		ci.cumTP[i+1] = ci.cumTP[i]
		if rec.TP {
			ci.cumTP[i+1]++
		}
	}
	return ci
}

func (ci *refIndex) precisionAt(t float64) float64 {
	n := sort.Search(len(ci.scores), func(i int) bool { return ci.scores[i] < t })
	if n == 0 {
		return 1
	}
	return float64(ci.cumTP[n]) / float64(n)
}

func (ci *refIndex) recallAt(t float64) float64 {
	if ci.numGT == 0 {
		return 0
	}
	n := sort.Search(len(ci.scores), func(i int) bool { return ci.scores[i] < t })
	return float64(ci.cumTP[n]) / float64(ci.numGT)
}

// refThreshold solves Eq. 5 over sorted, deduplicated candidates.
func refThreshold(records map[dataset.Class]*refRecords, classes []dataset.Class, beta float64) float64 {
	var indexes []*refIndex
	var all []float64
	for _, c := range classes {
		r := records[c]
		indexes = append(indexes, newRefIndex(r))
		for _, rec := range r.Records {
			all = append(all, rec.Score)
		}
	}
	if len(all) == 0 {
		return 1
	}
	sort.Float64s(all)
	uniq := all[:0]
	for i, s := range all {
		if i == 0 || s != uniq[len(uniq)-1] {
			uniq = append(uniq, s)
		}
	}
	bestT, bestPrec := uniq[len(uniq)-1], -1.0
	for _, t := range uniq {
		sum := 0.0
		for _, ci := range indexes {
			sum += ci.precisionAt(t)
		}
		p := sum / float64(len(indexes))
		if p >= beta {
			return t
		}
		if p > bestPrec {
			bestPrec, bestT = p, t
		}
	}
	return bestT
}

// refCurve is the reference Figure 7 curve of one class.
func refCurve(records map[dataset.Class]*refRecords, tracks []*refTrack, class dataset.Class, targets []float64) []metrics.CurvePoint {
	r := records[class]
	if r == nil || len(r.Records) == 0 {
		return nil
	}
	ci := newRefIndex(r)
	var classTracks []*refTrack
	for _, tr := range tracks {
		if tr.class == class && tr.firstEligible >= 0 {
			classTracks = append(classTracks, tr)
		}
	}
	cand := append([]float64(nil), ci.scores...)
	sort.Float64s(cand)
	var out []metrics.CurvePoint
	for _, target := range targets {
		t, found := 0.0, false
		for _, c := range cand {
			if ci.precisionAt(c) >= target {
				t, found = c, true
				break
			}
		}
		if !found {
			continue
		}
		delaySum := 0.0
		for _, tr := range classTracks {
			delaySum += tr.delayAt(t)
		}
		delay := 0.0
		if len(classTracks) > 0 {
			delay = delaySum / float64(len(classTracks))
		}
		out = append(out, metrics.CurvePoint{
			Precision: ci.precisionAt(t), Recall: ci.recallAt(t), Delay: delay, Threshold: t,
		})
	}
	return out
}

// outcome is every quantity compared between the reference and the
// package: mAP, the Eq. 5 threshold, mD with its per-class values, and
// the Figure 7 curves.
type outcome struct {
	mAP        float64
	perClassAP map[dataset.Class]float64
	threshold  float64
	mD         float64
	perClassMD map[dataset.Class]float64
	curves     map[dataset.Class][]metrics.CurvePoint
}

// figure7Targets is the precision grid of sim's Figure 7.
func figure7Targets() []float64 {
	var targets []float64
	for p := 0.5; p <= 1.0001; p += 0.02 {
		targets = append(targets, p)
	}
	return targets
}

// refOutcome computes the outcome the three-pass way: one Collect and
// one CollectTracks feed every metric, exactly as the separate
// reference calls would.
func refOutcome(ds *dataset.Dataset, dets metrics.Detections, diff dataset.Difficulty, beta float64) outcome {
	records := refCollect(ds, dets, diff)
	tracks := refCollectTracks(ds, dets, diff)
	o := outcome{perClassAP: map[dataset.Class]float64{}, curves: map[dataset.Class][]metrics.CurvePoint{}}
	for _, c := range ds.Classes {
		o.perClassAP[c] = refAP(records[c])
		o.mAP += o.perClassAP[c]
	}
	if len(ds.Classes) > 0 {
		o.mAP /= float64(len(ds.Classes))
	}
	o.threshold = refThreshold(records, ds.Classes, beta)
	o.mD, o.perClassMD = refMeanDelay(tracks, ds.Classes, o.threshold)
	for _, c := range ds.Classes {
		o.curves[c] = refCurve(records, tracks, c, figure7Targets())
	}
	return o
}

// pkgOutcome computes the outcome through the package's entry points;
// the curves come from a serial Matcher pass folded like sim's.
func pkgOutcome(ds *dataset.Dataset, dets metrics.Detections, diff dataset.Difficulty, beta float64) outcome {
	o := outcome{curves: map[dataset.Class][]metrics.CurvePoint{}}
	o.mAP, o.perClassAP = metrics.MAP(ds, dets, diff)
	o.mD, o.perClassMD, o.threshold = metrics.MeanDelayAtPrecision(ds, dets, diff, beta)
	var m metrics.Matcher
	shards := make([]metrics.Shard, len(ds.Sequences))
	for si := range ds.Sequences {
		seq := &ds.Sequences[si]
		shards[si] = m.Sequence(seq, dets[seq.ID], ds.Classes, diff)
	}
	ev := metrics.Fold(ds.Classes, shards)
	for _, c := range ds.Classes {
		o.curves[c] = ev.Curve(c, figure7Targets())
	}
	return o
}

// sameBits is bit equality, with every NaN equal to every NaN.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func checkBits(t *testing.T, what string, want, got float64) {
	t.Helper()
	if !sameBits(want, got) {
		t.Errorf("%s: got %v, want %v (bits %#x vs %#x)", what, got, want, math.Float64bits(got), math.Float64bits(want))
	}
}

func checkPerClass(t *testing.T, what string, want, got map[dataset.Class]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d classes, want %d", what, len(got), len(want))
	}
	for c, w := range want {
		g, ok := got[c]
		if !ok {
			t.Errorf("%s: class %v missing", what, c)
			continue
		}
		checkBits(t, what+"["+c.String()+"]", w, g)
	}
}

func checkOutcome(t *testing.T, want, got outcome) {
	t.Helper()
	checkBits(t, "mAP", want.mAP, got.mAP)
	checkPerClass(t, "AP", want.perClassAP, got.perClassAP)
	checkBits(t, "threshold", want.threshold, got.threshold)
	checkBits(t, "mD", want.mD, got.mD)
	checkPerClass(t, "delay", want.perClassMD, got.perClassMD)
	for c, wc := range want.curves {
		checkCurve(t, "curve "+c.String(), wc, got.curves[c])
	}
}

func checkCurve(t *testing.T, what string, want, got []metrics.CurvePoint) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d points, want %d", what, len(got), len(want))
		return
	}
	for i := range want {
		w, g := want[i], got[i]
		if !sameBits(w.Precision, g.Precision) || !sameBits(w.Recall, g.Recall) ||
			!sameBits(w.Delay, g.Delay) || !sameBits(w.Threshold, g.Threshold) {
			t.Errorf("%s point %d: got %+v, want %+v", what, i, g, w)
		}
	}
}

// table2Specs are the five systems of the paper's Table 2, in row order.
func table2Specs() []sim.SystemSpec {
	cfg := core.DefaultConfig()
	return []sim.SystemSpec{
		{Kind: sim.Single, Refinement: "resnet50"},
		{Kind: sim.Cascaded, Proposal: "resnet10a", Refinement: "resnet50", Cfg: cfg},
		{Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: cfg},
		{Kind: sim.Cascaded, Proposal: "resnet10b", Refinement: "resnet50", Cfg: cfg},
		{Kind: sim.CaTDet, Proposal: "resnet10b", Refinement: "resnet50", Cfg: cfg},
	}
}

// referenceWorlds are the generated worlds of the differential test:
// a reduced KITTI-sim, mini-KITTI and a reduced CityPersons (sparse
// labels, one class).
func referenceWorlds() map[string]*dataset.Dataset {
	kitti := video.KITTIPreset()
	kitti.NumSequences, kitti.FramesPerSeq = 4, 200
	city := video.CityPersonsPreset()
	city.NumSequences = 40
	return map[string]*dataset.Dataset{
		"kitti-sim":   video.Generate(kitti, 2),
		"mini-kitti":  video.Generate(video.MiniKITTIPreset(), 1),
		"citypersons": video.Generate(city, 1),
	}
}

// TestMatcherMatchesReference runs the five Table 2 systems over every
// reference world and compares every metric at every difficulty.
func TestMatcherMatchesReference(t *testing.T) {
	for name, ds := range referenceWorlds() {
		for _, spec := range table2Specs() {
			r := sim.Engine{}.MustRun(spec, ds)
			for _, diff := range dataset.Difficulties() {
				t.Run(name+"/"+r.SystemName+"/"+diff.String(), func(t *testing.T) {
					checkOutcome(t, refOutcome(ds, r.Detections, diff, sim.Beta), pkgOutcome(ds, r.Detections, diff, sim.Beta))
				})
			}
		}
	}
}

// tieWorld builds a small world that stresses the matcher's edge
// cases: scores quantized to quarters (ties within a frame, across
// frames and across classes), duplicate detections of one object,
// don't-care objects (small, occluded, truncated) with detections on
// them, tiny false positives, an object class outside the evaluated
// classes, two objects sharing a track in one frame, unlabeled frames,
// a sequence missing from the detections and one whose detection list
// stops short of its frames.
func tieWorld(classes []dataset.Class) (*dataset.Dataset, metrics.Detections) {
	rng := rand.New(rand.NewSource(7))
	ds := &dataset.Dataset{Name: "ties", Classes: classes}
	dets := metrics.Detections{}
	quarter := func() float64 { return float64(1+rng.Intn(4)) / 4 }
	for s := 0; s < 4; s++ {
		seq := dataset.Sequence{ID: string(rune('a' + s)), Width: 1000, Height: 400, FPS: 10}
		var frames [][]geom.Scored
		for f := 0; f < 24; f++ {
			fr := dataset.Frame{Index: f, Labeled: f%7 != 3}
			var fd []geom.Scored
			for k := 0; k < 6; k++ {
				if rng.Float64() < 0.2 {
					continue // the track is absent from this frame
				}
				cls := dataset.Class(k % 3) // class 2 is outside every evaluated set
				w, h := 30+8*float64(k), 26+6*float64(k)
				x, y := 40+140*float64(k)+2*float64(f), 60+10*float64(k%2)
				o := dataset.Object{TrackID: 10*s + k, Class: cls, Box: geom.NewBox(x, y, x+w, y+h)}
				switch rng.Intn(6) {
				case 0:
					o.Occlusion = dataset.LargelyOccluded
				case 1:
					o.Truncation = 0.4
				case 2:
					o.Box = geom.NewBox(x, y, x+w, y+12) // too small for any level
				}
				fr.Objects = append(fr.Objects, o)
				if k == 1 && f%5 == 0 {
					// A second object on the same track in this frame.
					twin := o
					twin.Box = o.Box.Translate(w+4, 0)
					fr.Objects = append(fr.Objects, twin)
					fd = append(fd, geom.Scored{Box: twin.Box, Score: quarter(), Class: int(cls)})
				}
				for n := rng.Intn(3); n > 0; n-- {
					jit := float64(rng.Intn(5)) - 2
					fd = append(fd, geom.Scored{Box: o.Box.Translate(jit, jit/2), Score: quarter(), Class: int(cls)})
				}
			}
			for n := rng.Intn(3); n > 0; n-- {
				x := 50 + 900*rng.Float64()
				h := []float64{10, 30, 60}[rng.Intn(3)]
				fd = append(fd, geom.Scored{Box: geom.NewBox(x, 300, x+h*0.8, 300+h), Score: quarter(), Class: rng.Intn(2)})
			}
			seq.Frames = append(seq.Frames, fr)
			frames = append(frames, fd)
		}
		ds.Sequences = append(ds.Sequences, seq)
		switch s {
		case 1: // missing from Detections altogether
		case 2:
			dets[seq.ID] = frames[:15]
		default:
			dets[seq.ID] = frames
		}
	}
	return ds, dets
}

// TestMatcherMatchesReferenceOnTies compares every metric on the
// tie-heavy world, for two class vocabularies, every difficulty and
// betas that exercise both the reached and the fallback branch of the
// Eq. 5 threshold.
func TestMatcherMatchesReferenceOnTies(t *testing.T) {
	vocab := map[string][]dataset.Class{
		"car+ped": {dataset.Car, dataset.Pedestrian},
		"ped":     {dataset.Pedestrian},
	}
	for vname, classes := range vocab {
		ds, dets := tieWorld(classes)
		for _, diff := range dataset.Difficulties() {
			for _, beta := range []float64{0.3, 0.8, 0.99, 1} {
				want := refOutcome(ds, dets, diff, beta)
				got := pkgOutcome(ds, dets, diff, beta)
				t.Run(vname+"/"+diff.String(), func(t *testing.T) { checkOutcome(t, want, got) })
			}
		}
	}
}

// TestSimPathsMatchReference pins sim.Evaluate (on the zero Engine, so
// at GOMAXPROCS workers) and the Engine's Table 2 and Figure 7 paths
// to the reference at 1, 2 and 8 workers.
func TestSimPathsMatchReference(t *testing.T) {
	kitti := video.KITTIPreset()
	kitti.NumSequences, kitti.FramesPerSeq = 5, 120
	ds := video.Generate(kitti, 3)
	city := video.CityPersonsPreset()
	city.NumSequences = 24
	sparse := video.Generate(city, 2)

	type ref struct {
		run      *sim.RunResult
		moderate outcome
		hard     outcome
	}
	var refs []ref
	for _, spec := range table2Specs() {
		r := sim.Engine{Workers: 1}.MustRun(spec, ds)
		refs = append(refs, ref{r, refOutcome(ds, r.Detections, dataset.Moderate, sim.Beta), refOutcome(ds, r.Detections, dataset.Hard, sim.Beta)})
	}
	cityRun := sim.Engine{Workers: 1}.MustRun(table2Specs()[2], sparse)
	cityRef := refOutcome(sparse, cityRun.Detections, dataset.Hard, sim.Beta)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(workers)
		for _, rf := range refs {
			for _, c := range []struct {
				diff dataset.Difficulty
				want outcome
			}{{dataset.Moderate, rf.moderate}, {dataset.Hard, rf.hard}} {
				ev := sim.Evaluate(ds, rf.run, c.diff, sim.Beta)
				checkBits(t, "Evaluate mAP", c.want.mAP, ev.MAP)
				checkPerClass(t, "Evaluate AP", c.want.perClassAP, ev.PerClassAP)
				checkBits(t, "Evaluate threshold", c.want.threshold, ev.Threshold)
				checkBits(t, "Evaluate mD", c.want.mD, ev.MeanDelay)
				checkPerClass(t, "Evaluate delay", c.want.perClassMD, ev.PerClassDelay)
			}
		}
		// Sparse labels: mAP only, no delay.
		ev := sim.Evaluate(sparse, cityRun, dataset.Hard, sim.Beta)
		checkBits(t, "sparse mAP", cityRef.mAP, ev.MAP)
		checkPerClass(t, "sparse AP", cityRef.perClassAP, ev.PerClassAP)
		if !math.IsNaN(ev.MeanDelay) || ev.PerClassDelay != nil || ev.Threshold != 0 {
			t.Errorf("sparse dataset scored a delay: %v %v %v", ev.MeanDelay, ev.PerClassDelay, ev.Threshold)
		}

		eng := sim.Engine{Workers: workers}
		for i, row := range eng.Table2(ds) {
			rf := refs[i]
			if row.System != rf.run.SystemName || !sameBits(row.Gops, rf.run.AvgGops()) {
				t.Errorf("workers %d row %d: %s %v, want %s %v", workers, i, row.System, row.Gops, rf.run.SystemName, rf.run.AvgGops())
			}
			checkBits(t, "Table 2 mAP Moderate", rf.moderate.mAP, row.MAPModerate)
			checkBits(t, "Table 2 mAP Hard", rf.hard.mAP, row.MAPHard)
			checkBits(t, "Table 2 mD Moderate", rf.moderate.mD, row.MD08Moderate)
			checkBits(t, "Table 2 mD Hard", rf.hard.mD, row.MD08Hard)
		}
		curves := eng.Figure7(ds)
		for _, c := range ds.Classes {
			checkCurve(t, "Figure 7 "+c.String(), refs[2].hard.curves[c], curves[c])
		}
	}
}
