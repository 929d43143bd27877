package metrics

import "repro/internal/dataset"

// The official CityPersons benchmark follows the MS-COCO protocol,
// "which measures mAP under 10 different IoUs ranging from 0.5 to
// 0.95" (Section 7.1). The paper itself evaluates CityPersons with the
// Pascal VOC protocol; both are provided.

// CollectAtIoU pools evaluation records at an explicit IoU threshold
// (instead of the per-class KITTI thresholds).
func CollectAtIoU(ds *dataset.Dataset, dets Detections, diff dataset.Difficulty, iou float64) map[dataset.Class]*ClassRecords {
	var m Matcher
	for range ds.Classes {
		m.thresh = append(m.thresh, iou)
	}
	out := make(map[dataset.Class]*ClassRecords, len(ds.Classes))
	for _, c := range ds.Classes {
		out[c] = &ClassRecords{Class: c}
	}
	for si := range ds.Sequences {
		seq := &ds.Sequences[si]
		sh := m.sequence(seq, dets[seq.ID], ds.Classes, diff)
		for ci, c := range ds.Classes {
			r := out[c]
			for _, s := range sh.tp[ci] {
				r.Records = append(r.Records, Record{Score: s, TP: true})
			}
			for _, s := range sh.fp[ci] {
				r.Records = append(r.Records, Record{Score: s})
			}
			r.NumGT += sh.numGT[ci]
		}
	}
	return out
}

// MAPAtIoU returns the mean AP over classes at one IoU threshold.
func MAPAtIoU(ds *dataset.Dataset, dets Detections, diff dataset.Difficulty, iou float64) float64 {
	records := CollectAtIoU(ds, dets, diff, iou)
	sum := 0.0
	for _, c := range ds.Classes {
		sum += records[c].AP()
	}
	if len(ds.Classes) == 0 {
		return 0
	}
	return sum / float64(len(ds.Classes))
}

// COCOIoUs is the MS-COCO threshold grid, 0.50:0.05:0.95.
var COCOIoUs = []float64{0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95}

// COCOMAP evaluates the COCO-style mAP: the mean over the ten IoU
// thresholds of the mean class AP.
func COCOMAP(ds *dataset.Dataset, dets Detections, diff dataset.Difficulty) (float64, map[float64]float64) {
	perIoU := map[float64]float64{}
	sum := 0.0
	for _, iou := range COCOIoUs {
		v := MAPAtIoU(ds, dets, diff, iou)
		perIoU[iou] = v
		sum += v
	}
	return sum / float64(len(COCOIoUs)), perIoU
}
