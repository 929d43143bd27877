package sim

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/video"
)

func miniCity() *dataset.Dataset {
	p := video.CityPersonsPreset()
	p.NumSequences = 40
	return video.Generate(p, 1)
}

// Table 6's headline: on the CityPersons-like world the cascade loses
// several points of AP while CaTDet recovers (nearly) all of them, at
// a large ops saving.
func TestTable6Shape(t *testing.T) {
	rows := Engine{}.Table6(miniCity())
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	single, casc, cat := rows[0], rows[1], rows[2]
	if !(casc.MAP < single.MAP-0.02) {
		t.Errorf("cascade mAP %.3f should clearly trail single %.3f on CityPersons", casc.MAP, single.MAP)
	}
	if !(cat.MAP > casc.MAP+0.02) {
		t.Errorf("CaTDet mAP %.3f should clearly beat cascade %.3f", cat.MAP, casc.MAP)
	}
	if cat.MAP < single.MAP-0.03 {
		t.Errorf("CaTDet mAP %.3f should be near single %.3f", cat.MAP, single.MAP)
	}
	if single.Gops/cat.Gops < 4 {
		t.Errorf("ops saving %.1fx, want > 4x on the high-resolution world", single.Gops/cat.Gops)
	}
}

// Table 8's headline: RetinaNet-CaTDet matches or beats single-model
// RetinaNet at a meaningful ops saving.
func TestTable8Shape(t *testing.T) {
	p := video.KITTIPreset()
	p.NumSequences = 3
	p.FramesPerSeq = 200
	ds := video.Generate(p, 1)
	rows := Engine{}.Table8(ds)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	single, cat := rows[0], rows[1]
	if cat.MAP < single.MAP-0.02 {
		t.Errorf("RetinaNet CaTDet mAP %.3f well below single %.3f", cat.MAP, single.MAP)
	}
	if single.Gops/cat.Gops < 1.5 {
		t.Errorf("ops saving %.2fx too small", single.Gops/cat.Gops)
	}
}

// Figure 6's headline on a reduced grid: with the tracker, mAP is
// insensitive to C-thresh; without it, mAP is lower and falls as
// C-thresh rises; delay rises with C-thresh in both settings.
func TestFigure6Shape(t *testing.T) {
	p := video.KITTIPreset()
	p.NumSequences = 3
	p.FramesPerSeq = 220
	ds := video.Generate(p, 1)
	grid := []float64{0.01, 0.4}
	pts := Engine{}.Figure6(ds, grid)

	get := func(model string, tracker bool, ct float64) SweepPoint {
		for _, pt := range pts {
			if pt.Model == model && pt.Tracker == tracker && pt.CThresh == ct {
				return pt
			}
		}
		t.Fatalf("missing point %s/%v/%v", model, tracker, ct)
		return SweepPoint{}
	}
	for _, model := range []string{"resnet10a", "resnet10c"} {
		wLo, wHi := get(model, true, 0.01), get(model, true, 0.4)
		oLo, oHi := get(model, false, 0.01), get(model, false, 0.4)
		// Tracker keeps mAP roughly flat.
		if wLo.MAP-wHi.MAP > 0.03 {
			t.Errorf("%s w/ tracker: mAP drops %.3f over C-thresh", model, wLo.MAP-wHi.MAP)
		}
		// Without the tracker mAP is lower and declines.
		if oLo.MAP >= wLo.MAP {
			t.Errorf("%s: no-tracker mAP %.3f not below with-tracker %.3f", model, oLo.MAP, wLo.MAP)
		}
		if oHi.MAP >= oLo.MAP-0.01 {
			t.Errorf("%s w/o tracker: mAP did not fall with C-thresh (%.3f -> %.3f)", model, oLo.MAP, oHi.MAP)
		}
		// Delay rises with C-thresh for the with-tracker system (wide
		// tolerance: the estimate is noisy on this reduced world). The
		// no-tracker series is only checked at full scale
		// (cmd/experiments): at collapsed-mAP operating points the
		// precision-matched threshold, and hence the delay, is unstable
		// on small data.
		if wHi.MD08 < wLo.MD08-1.0 {
			t.Errorf("%s: delay fell sharply with C-thresh (w/ %.1f->%.1f)",
				model, wLo.MD08, wHi.MD08)
		}
		// Ops fall with C-thresh.
		if wHi.Gops >= wLo.Gops {
			t.Errorf("%s: ops did not fall with C-thresh", model)
		}
	}
}

// Figure 7: recall falls (weakly) and delay rises (weakly) as the
// precision operating point increases.
func TestFigure7Shape(t *testing.T) {
	p := video.KITTIPreset()
	p.NumSequences = 3
	p.FramesPerSeq = 220
	ds := video.Generate(p, 1)
	curves := Engine{}.Figure7(ds)
	for _, c := range ds.Classes {
		pts := curves[c]
		if len(pts) < 5 {
			t.Fatalf("%v: too few curve points (%d)", c, len(pts))
		}
		// Compare the first and last fifth to smooth local noise.
		k := len(pts) / 5
		avg := func(lo, hi int, f func(i int) float64) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += f(i)
			}
			return s / float64(hi-lo)
		}
		recLo := avg(0, k, func(i int) float64 { return pts[i].Recall })
		recHi := avg(len(pts)-k, len(pts), func(i int) float64 { return pts[i].Recall })
		delLo := avg(0, k, func(i int) float64 { return pts[i].Delay })
		delHi := avg(len(pts)-k, len(pts), func(i int) float64 { return pts[i].Delay })
		if recHi > recLo+1e-9 {
			t.Errorf("%v: recall rose with precision (%.3f -> %.3f)", c, recLo, recHi)
		}
		if delHi < delLo-1e-9 {
			t.Errorf("%v: delay fell with precision (%.1f -> %.1f)", c, delLo, delHi)
		}
	}
}

func TestAblationsTable(t *testing.T) {
	p := video.KITTIPreset()
	p.NumSequences = 2
	p.FramesPerSeq = 150
	ds := video.Generate(p, 1)
	rows := Engine{}.Ablations(ds)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	names := []string{"baseline", "kalman", "fixed-age", "no prediction filters", "class-agnostic"}
	for i, r := range rows {
		if !strings.Contains(r.Variant, strings.Split(names[i], " ")[0]) {
			t.Errorf("row %d variant = %q", i, r.Variant)
		}
		if r.MAPHard <= 0.3 || r.MAPHard > 1 {
			t.Errorf("%s: mAP %.3f implausible", r.Variant, r.MAPHard)
		}
	}
}
