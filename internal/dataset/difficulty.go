package dataset

// Difficulty is a KITTI evaluation difficulty level. Each level sets
// thresholds on bounding-box height, occlusion and truncation for a
// ground-truth object to count towards evaluation; objects failing the
// thresholds become "don't care" regions that neither count as false
// negatives nor penalize detections matched to them (Section 6.1).
type Difficulty int

// The three KITTI difficulty levels. The paper reports Moderate and Hard
// (Easy "does not distinguish different methods").
const (
	Easy Difficulty = iota
	Moderate
	Hard
)

// String implements fmt.Stringer.
func (d Difficulty) String() string {
	switch d {
	case Easy:
		return "Easy"
	case Moderate:
		return "Moderate"
	case Hard:
		return "Hard"
	default:
		return "Difficulty(?)"
	}
}

// difficultySpec carries the official KITTI thresholds.
type difficultySpec struct {
	minHeight     float64
	maxOcclusion  int
	maxTruncation float64
}

// difficultySpecs is indexed by Difficulty: the matcher consults it
// for every object, class and frame it visits, so it is an array, not
// a map.
var difficultySpecs = [...]difficultySpec{
	Easy:     {minHeight: 40, maxOcclusion: FullyVisible, maxTruncation: 0.15},
	Moderate: {minHeight: 25, maxOcclusion: PartlyOccluded, maxTruncation: 0.30},
	Hard:     {minHeight: 25, maxOcclusion: LargelyOccluded, maxTruncation: 0.50},
}

// spec returns the level's thresholds; an out-of-range level gets the
// zero spec (no minimum height, fully visible and untruncated only).
func (d Difficulty) spec() difficultySpec {
	if d < 0 || int(d) >= len(difficultySpecs) {
		return difficultySpec{}
	}
	return difficultySpecs[d]
}

// MinHeight returns the minimum bounding-box height (pixels) for an
// object to be evaluated at this difficulty. Detections shorter than
// this are ignored rather than counted as false positives, matching the
// official development kit.
func (d Difficulty) MinHeight() float64 { return d.spec().minHeight }

// Eligible reports whether the ground-truth object counts towards
// evaluation at this difficulty.
func (d Difficulty) Eligible(o Object) bool {
	spec := d.spec()
	if o.Box.Height() < spec.minHeight {
		return false
	}
	if o.Occlusion > spec.maxOcclusion {
		return false
	}
	if o.Truncation > spec.maxTruncation {
		return false
	}
	return true
}

// Difficulties lists all levels in ascending strictness of inclusion.
func Difficulties() []Difficulty { return []Difficulty{Easy, Moderate, Hard} }
