package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/metrics"
)

// Report bundles every regenerated experiment in machine-readable form,
// so a reproduction run can be archived and diffed (e.g. in CI) against
// a previous one.
type Report struct {
	// Seed and dataset shapes identify the run.
	Seed        int64  `json:"seed"`
	KITTIName   string `json:"kitti_dataset"`
	KITTIFrames int    `json:"kitti_frames"`
	CityName    string `json:"citypersons_dataset,omitempty"`
	CityFrames  int    `json:"citypersons_frames,omitempty"`

	Table1  []Table1Row                     `json:"table1"`
	Table2  []MainRow                       `json:"table2"`
	Table3  []BreakdownRow                  `json:"table3"`
	Table4  []StudyRow                      `json:"table4"`
	Table5  []StudyRow                      `json:"table5"`
	Table6  []CityRow                       `json:"table6,omitempty"`
	Table7  []TimingRow                     `json:"table7"`
	Table8  []StudyRow                      `json:"table8"`
	Figure6 []SweepPoint                    `json:"figure6"`
	Figure7 map[string][]metrics.CurvePoint `json:"figure7"`
}

// RunAll regenerates every table and figure on this engine's worker
// pool. city may be nil to skip the CityPersons experiments.
func (e Engine) RunAll(kitti, city *dataset.Dataset, seed int64) *Report {
	r := &Report{
		Seed:        seed,
		KITTIName:   kitti.Name,
		KITTIFrames: kitti.NumFrames(),
		Table1:      Table1(),
		Table2:      e.Table2(kitti),
		Table3:      e.Table3(kitti),
		Table4:      e.Table4(kitti),
		Table5:      e.Table5(kitti),
		Table7:      e.Table7(kitti),
		Table8:      e.Table8(kitti),
		Figure6:     e.Figure6(kitti, nil),
	}
	if city != nil {
		r.CityName = city.Name
		r.CityFrames = city.NumFrames()
		r.Table6 = e.Table6(city)
	}
	curves := e.Figure7(kitti)
	r.Figure7 = map[string][]metrics.CurvePoint{}
	// Rekeying map to map: every iteration writes a distinct key, so
	// the resulting map is identical under any visit order, and the
	// JSON encoder marshals map keys sorted.
	for c, pts := range curves { //detlint:ok order-free map rekey; encoding/json sorts map keys
		r.Figure7[c.String()] = pts
	}
	return r
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("sim: encode report: %w", err)
	}
	return nil
}

// ShapeCheck asserts the paper's qualitative claims on a report (op
// savings, cascade-vs-CaTDet contrasts, Figure 6 flatness; see
// docs/ARCHITECTURE.md, "Evaluation substrate") and returns a list of
// violations (empty when the reproduction holds).
func (r *Report) ShapeCheck() []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	if len(r.Table2) == 5 {
		single, cat10a, casc10a := r.Table2[0], r.Table2[2], r.Table2[1]
		if cat10a.MAPHard < single.MAPHard-0.02 {
			fail("table2: CaTDet Hard mAP %.3f well below single %.3f", cat10a.MAPHard, single.MAPHard)
		}
		if single.Gops/cat10a.Gops < 3 {
			fail("table2: ops saving %.1fx < 3x", single.Gops/cat10a.Gops)
		}
		if casc10a.MAPHard >= cat10a.MAPHard {
			fail("table2: cascade mAP %.3f not below CaTDet %.3f", casc10a.MAPHard, cat10a.MAPHard)
		}
	} else {
		fail("table2: %d rows", len(r.Table2))
	}

	// Table 4: CaTDet mAP flat across proposal nets.
	var singles, cats []StudyRow
	for _, row := range r.Table4 {
		if row.Setting == "FR-CNN" {
			singles = append(singles, row)
		} else {
			cats = append(cats, row)
		}
	}
	if len(singles) >= 2 && len(cats) >= 2 {
		sSpread := singles[0].MAP - singles[len(singles)-1].MAP
		cSpread := cats[0].MAP - cats[len(cats)-1].MAP
		if cSpread < 0 {
			cSpread = -cSpread
		}
		if cSpread > sSpread/2 {
			fail("table4: CaTDet spread %.3f not flat vs single spread %.3f", cSpread, sSpread)
		}
	}

	// Table 6: cascade collapses, CaTDet recovers.
	if len(r.Table6) == 5 {
		single, casc, cat := r.Table6[0], r.Table6[1], r.Table6[2]
		if !(casc.MAP < single.MAP-0.02 && cat.MAP > casc.MAP+0.02) {
			fail("table6: cascade/CaTDet contrast missing (%.3f / %.3f / %.3f)", single.MAP, casc.MAP, cat.MAP)
		}
	}

	// Table 7: CaTDet at least 2x faster on GPU time.
	if len(r.Table7) == 2 && r.Table7[1].GPUOnly > r.Table7[0].GPUOnly/2 {
		fail("table7: GPU speedup %.1fx < 2x", r.Table7[0].GPUOnly/r.Table7[1].GPUOnly)
	}

	// Figure 6: without the tracker, mAP falls with C-thresh; with it,
	// it stays flat. The flatness window excludes C-thresh > 0.4: at
	// the extreme 0.6 point even the paper's with-tracker curves bend.
	var wLo, wMid, oLo, oHi *SweepPoint
	for i := range r.Figure6 {
		p := &r.Figure6[i]
		if p.Model != "resnet10a" {
			continue
		}
		if p.Tracker {
			if wLo == nil || p.CThresh < wLo.CThresh {
				wLo = p
			}
			if p.CThresh <= 0.4+1e-9 && (wMid == nil || p.CThresh > wMid.CThresh) {
				wMid = p
			}
		} else {
			if oLo == nil || p.CThresh < oLo.CThresh {
				oLo = p
			}
			if oHi == nil || p.CThresh > oHi.CThresh {
				oHi = p
			}
		}
	}
	if wLo != nil && wMid != nil && oLo != nil && oHi != nil {
		if oLo.MAP-oHi.MAP < 0.02 {
			fail("figure6: no-tracker mAP did not fall with C-thresh (%.3f -> %.3f)", oLo.MAP, oHi.MAP)
		}
		if wLo.MAP-wMid.MAP > 0.05 {
			fail("figure6: with-tracker mAP fell %.3f over C-thresh <= 0.4", wLo.MAP-wMid.MAP)
		}
	}
	return bad
}
