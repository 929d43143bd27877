// Package dataset defines the video-detection data model shared by the
// whole system: sequences of frames with tracked ground-truth objects,
// KITTI-style difficulty filtering, and (de)serialization. The synthetic
// worlds in internal/video produce values of these types; everything
// downstream (detectors, tracker, metrics) consumes them.
package dataset

import (
	"fmt"

	"repro/internal/geom"
)

// Class is an object category label. The two evaluation datasets of the
// paper use Car and Pedestrian (KITTI) and Pedestrian only (CityPersons).
type Class int

// Known classes.
const (
	Car Class = iota
	Pedestrian
	NumClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Car:
		return "Car"
	case Pedestrian:
		return "Pedestrian"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// MatchIoU returns the minimum IoU for a valid detection of this class
// under the KITTI protocol: 0.7 for Car, 0.5 for Pedestrian.
func (c Class) MatchIoU() float64 {
	if c == Car {
		return 0.7
	}
	return 0.5
}

// Occlusion levels follow the KITTI convention.
const (
	FullyVisible    = 0
	PartlyOccluded  = 1
	LargelyOccluded = 2
)

// Object is one ground-truth object instance in one frame.
type Object struct {
	// TrackID identifies the object across frames within its sequence.
	TrackID int      `json:"track_id"`
	Class   Class    `json:"class"`
	Box     geom.Box `json:"box"`
	// Occlusion is the KITTI occlusion level (0 fully visible, 1 partly
	// occluded, 2 largely occluded).
	Occlusion int `json:"occlusion"`
	// Truncation is the fraction of the object outside the frame, 0..1.
	Truncation float64 `json:"truncation"`
}

// Frame is one video frame's ground truth.
type Frame struct {
	// Index is the frame number within its sequence, starting at 0.
	Index int `json:"index"`
	// Labeled reports whether ground truth exists for this frame.
	// CityPersons-style datasets label only one frame per snippet; the
	// detection system still runs on unlabeled frames, but the evaluator
	// skips them.
	Labeled bool     `json:"labeled"`
	Objects []Object `json:"objects,omitempty"`
}

// Sequence is a contiguous video clip with per-frame ground truth.
type Sequence struct {
	ID     string  `json:"id"`
	Width  int     `json:"width"`
	Height int     `json:"height"`
	FPS    float64 `json:"fps"`
	Frames []Frame `json:"frames"`
}

// Dataset is a collection of sequences with a shared class vocabulary.
type Dataset struct {
	Name      string     `json:"name"`
	Classes   []Class    `json:"classes"`
	Sequences []Sequence `json:"sequences"`
}

// NumFrames returns the total frame count across sequences.
func (d *Dataset) NumFrames() int {
	n := 0
	for i := range d.Sequences {
		n += len(d.Sequences[i].Frames)
	}
	return n
}

// NumLabeledFrames returns the number of frames carrying ground truth.
func (d *Dataset) NumLabeledFrames() int {
	n := 0
	for i := range d.Sequences {
		for j := range d.Sequences[i].Frames {
			if d.Sequences[i].Frames[j].Labeled {
				n++
			}
		}
	}
	return n
}

// NumObjects returns the total labeled object instances.
func (d *Dataset) NumObjects() int {
	n := 0
	for i := range d.Sequences {
		for j := range d.Sequences[i].Frames {
			n += len(d.Sequences[i].Frames[j].Objects)
		}
	}
	return n
}

// Validate checks structural invariants: positive dimensions, frame
// indexes in order, boxes valid and objects' classes known.
func (d *Dataset) Validate() error {
	for si := range d.Sequences {
		s := &d.Sequences[si]
		if s.Width <= 0 || s.Height <= 0 {
			return fmt.Errorf("dataset: sequence %q has non-positive dimensions", s.ID)
		}
		for fi := range s.Frames {
			f := &s.Frames[fi]
			if f.Index != fi {
				return fmt.Errorf("dataset: sequence %q frame %d has index %d", s.ID, fi, f.Index)
			}
			for oi := range f.Objects {
				o := &f.Objects[oi]
				if !o.Box.Valid() || o.Box.Empty() {
					return fmt.Errorf("dataset: sequence %q frame %d object %d has invalid box %v", s.ID, fi, oi, o.Box)
				}
				if o.Class < 0 || o.Class >= NumClasses {
					return fmt.Errorf("dataset: sequence %q frame %d object %d has unknown class %d", s.ID, fi, oi, o.Class)
				}
				if o.Occlusion < 0 || o.Occlusion > LargelyOccluded {
					return fmt.Errorf("dataset: sequence %q frame %d object %d has occlusion %d", s.ID, fi, oi, o.Occlusion)
				}
				if o.Truncation < 0 || o.Truncation > 1 {
					return fmt.Errorf("dataset: sequence %q frame %d object %d has truncation %v", s.ID, fi, oi, o.Truncation)
				}
			}
		}
	}
	return nil
}

// TrackSpan describes the lifetime of one ground-truth track within a
// sequence.
type TrackSpan struct {
	SeqID      string
	TrackID    int
	Class      Class
	FirstFrame int // first frame the track appears in
	LastFrame  int // last frame the track appears in
}

// Tracks returns the spans of all ground-truth tracks in the sequence.
func (s *Sequence) Tracks() []TrackSpan {
	byID := map[int]*TrackSpan{}
	var order []int
	for fi := range s.Frames {
		for _, o := range s.Frames[fi].Objects {
			sp, ok := byID[o.TrackID]
			if !ok {
				sp = &TrackSpan{SeqID: s.ID, TrackID: o.TrackID, Class: o.Class, FirstFrame: fi, LastFrame: fi}
				byID[o.TrackID] = sp
				order = append(order, o.TrackID)
			}
			sp.LastFrame = fi
		}
	}
	out := make([]TrackSpan, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out
}
