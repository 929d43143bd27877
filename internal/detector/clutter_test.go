package detector

import "repro/internal/geom"

// appendFalsePositives appends the frame's clutter to dst as
// Detections, each with TrackID -1: the candidate shape the reference
// tests rebuild a pass's raw set in.
func (d *Detector) appendFalsePositives(dst []Detection, f Frame, mask *geom.Mask, nProposals int, frameKey uint64) []Detection {
	clutter, _ := d.appendClutter(nil, nil, f, mask, nProposals, frameKey)
	for _, s := range clutter {
		dst = append(dst, Detection{Scored: s, TrackID: -1})
	}
	return dst
}
