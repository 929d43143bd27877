package metrics

import "repro/internal/dataset"

// Exit delay (Section 5): "the actual exit frame minus the predicted
// exit frame". For a detection system the natural reading is the gap
// between the last frame an object was still detected and the frame it
// actually left the scene: a system that loses an object early reports
// a stale world for that many frames. The paper defines but does not
// evaluate it ("we are focusing on entry delay"); it is provided here
// as the natural extension.

// ExitDelayAt returns the number of frames between the track's last
// matching detection at score >= t and its true exit. A track never
// detected at all is charged its full evaluated lifetime, symmetric
// with the entry-delay convention.
func (tr *TrackObservation) ExitDelayAt(t float64) float64 {
	for i := len(tr.FrameScores) - 1; i >= 0; i-- {
		if tr.FrameScores[i] >= t {
			return float64(tr.LastFrame - (tr.FirstEligible + i))
		}
	}
	return float64(tr.LastFrame - tr.FirstEligible + 1)
}

// meanExitDelay averages ExitDelayAt(t) per class over the evaluable
// tracks, then over classes, mirroring MeanDelay.
func (ev *Evaluation) meanExitDelay(t float64) (float64, map[dataset.Class]float64) {
	return ev.meanOver(t, (*TrackObservation).ExitDelayAt)
}

// MeanExitDelayAtPrecision computes the exit-delay analogue of mD@beta:
// the threshold is chosen by the same Eq. 5 rule, then per-class mean
// exit delays are averaged.
func MeanExitDelayAtPrecision(ds *dataset.Dataset, dets Detections, diff dataset.Difficulty, beta float64) (float64, map[dataset.Class]float64, float64) {
	ev := evaluate(ds, dets, diff)
	t := ev.Threshold(beta)
	mean, perClass := ev.meanExitDelay(t)
	return mean, perClass, t
}
