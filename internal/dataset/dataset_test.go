package dataset

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/geom"
)

func sampleDataset() *Dataset {
	return &Dataset{
		Name:    "sample",
		Classes: []Class{Car, Pedestrian},
		Sequences: []Sequence{
			{
				ID: "seq-0", Width: 100, Height: 50, FPS: 10,
				Frames: []Frame{
					{Index: 0, Labeled: true, Objects: []Object{
						{TrackID: 1, Class: Car, Box: geom.NewBox(10, 10, 40, 30)},
						{TrackID: 2, Class: Pedestrian, Box: geom.NewBox(60, 5, 70, 35)},
					}},
					{Index: 1, Labeled: true, Objects: []Object{
						{TrackID: 1, Class: Car, Box: geom.NewBox(12, 10, 42, 30)},
					}},
					{Index: 2, Labeled: true, Objects: []Object{
						{TrackID: 1, Class: Car, Box: geom.NewBox(14, 10, 44, 30)},
						{TrackID: 3, Class: Car, Box: geom.NewBox(0, 0, 20, 20), Occlusion: PartlyOccluded},
					}},
				},
			},
		},
	}
}

func TestClassString(t *testing.T) {
	if Car.String() != "Car" || Pedestrian.String() != "Pedestrian" {
		t.Fatal("class names wrong")
	}
	if Class(9).String() != "Class(9)" {
		t.Fatalf("unknown class string = %q", Class(9).String())
	}
}

func TestMatchIoUPerClass(t *testing.T) {
	if Car.MatchIoU() != 0.7 {
		t.Fatalf("Car IoU = %v, want 0.7 (KITTI convention)", Car.MatchIoU())
	}
	if Pedestrian.MatchIoU() != 0.5 {
		t.Fatalf("Pedestrian IoU = %v, want 0.5", Pedestrian.MatchIoU())
	}
}

func TestCounts(t *testing.T) {
	d := sampleDataset()
	if d.NumFrames() != 3 || d.NumLabeledFrames() != 3 || d.NumObjects() != 5 {
		t.Fatalf("counts = %d/%d/%d", d.NumFrames(), d.NumLabeledFrames(), d.NumObjects())
	}
}

func TestValidateAcceptsGood(t *testing.T) {
	if err := sampleDataset().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	cases := []func(*Dataset){
		func(d *Dataset) { d.Sequences[0].Width = 0 },
		func(d *Dataset) { d.Sequences[0].Frames[1].Index = 5 },
		func(d *Dataset) { d.Sequences[0].Frames[0].Objects[0].Box = geom.Box{X1: 5, Y1: 5, X2: 5, Y2: 9} },
		func(d *Dataset) { d.Sequences[0].Frames[0].Objects[0].Class = Class(42) },
		func(d *Dataset) { d.Sequences[0].Frames[0].Objects[0].Occlusion = 7 },
		func(d *Dataset) { d.Sequences[0].Frames[0].Objects[0].Truncation = 1.5 },
	}
	for i, mutate := range cases {
		d := sampleDataset()
		mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestTracks(t *testing.T) {
	d := sampleDataset()
	spans := d.Sequences[0].Tracks()
	if len(spans) != 3 {
		t.Fatalf("tracks = %d, want 3", len(spans))
	}
	byID := map[int]TrackSpan{}
	for _, s := range spans {
		byID[s.TrackID] = s
	}
	if s := byID[1]; s.FirstFrame != 0 || s.LastFrame != 2 {
		t.Fatalf("track 1 span = %+v", s)
	}
	if s := byID[3]; s.FirstFrame != 2 || s.LastFrame != 2 || s.Class != Car {
		t.Fatalf("track 3 span = %+v", s)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || got.NumObjects() != d.NumObjects() {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Sequences[0].Frames[0].Objects[0] != d.Sequences[0].Frames[0].Objects[0] {
		t.Fatal("object round trip mismatch")
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	if _, err := Load(bytes.NewBufferString(`{"sequences":[{"id":"x","width":0,"height":5}]}`)); err == nil {
		t.Fatal("expected validation failure")
	}
	if _, err := Load(bytes.NewBufferString(`not json`)); err == nil {
		t.Fatal("expected decode failure")
	}
}

func TestSaveLoadFileGzip(t *testing.T) {
	d := sampleDataset()
	dir := t.TempDir()
	for _, name := range []string{"d.json", "d.json.gz"} {
		path := filepath.Join(dir, name)
		if err := d.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumObjects() != d.NumObjects() {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

func TestDifficultyEligible(t *testing.T) {
	big := Object{Box: geom.NewBox(0, 0, 60, 60)}
	small := Object{Box: geom.NewBox(0, 0, 20, 20)}
	occluded := Object{Box: geom.NewBox(0, 0, 60, 60), Occlusion: LargelyOccluded}
	truncated := Object{Box: geom.NewBox(0, 0, 60, 60), Truncation: 0.4}

	if !Easy.Eligible(big) || !Moderate.Eligible(big) || !Hard.Eligible(big) {
		t.Fatal("large clear object must be eligible everywhere")
	}
	if Easy.Eligible(small) {
		t.Fatal("20px object must not be Easy")
	}
	if !Hard.Eligible(Object{Box: geom.NewBox(0, 0, 20, 30)}) {
		t.Fatal("30px object should be Hard-eligible")
	}
	if Easy.Eligible(occluded) || Moderate.Eligible(occluded) {
		t.Fatal("largely occluded object only counts at Hard")
	}
	if !Hard.Eligible(occluded) {
		t.Fatal("largely occluded object should count at Hard")
	}
	if Easy.Eligible(truncated) || Moderate.Eligible(truncated) {
		t.Fatal("40 pct truncated object only counts at Hard")
	}
	if !Hard.Eligible(truncated) {
		t.Fatal("40 pct truncated object should count at Hard")
	}
}

// An out-of-range level has the zero spec: no minimum height, and only
// fully visible, untruncated objects count.
func TestDifficultyOutOfRangeZeroSpec(t *testing.T) {
	tiny := Object{Box: geom.NewBox(0, 0, 2, 2)}
	partly := Object{Box: geom.NewBox(0, 0, 60, 60), Occlusion: PartlyOccluded}
	cut := Object{Box: geom.NewBox(0, 0, 60, 60), Truncation: 0.01}
	for _, d := range []Difficulty{-1, Hard + 1, 100} {
		if h := d.MinHeight(); h != 0 {
			t.Errorf("%d: MinHeight %v, want 0", d, h)
		}
		if !d.Eligible(tiny) {
			t.Errorf("%d: a 2px clear object must be eligible under the zero spec", d)
		}
		if d.Eligible(partly) || d.Eligible(cut) {
			t.Errorf("%d: occluded or truncated objects must fail the zero spec", d)
		}
	}
}

// Hard must be a superset of Moderate, which must be a superset of Easy.
func TestDifficultyMonotone(t *testing.T) {
	objs := []Object{
		{Box: geom.NewBox(0, 0, 60, 60)},
		{Box: geom.NewBox(0, 0, 60, 30)},
		{Box: geom.NewBox(0, 0, 60, 60), Occlusion: PartlyOccluded},
		{Box: geom.NewBox(0, 0, 60, 60), Occlusion: LargelyOccluded},
		{Box: geom.NewBox(0, 0, 60, 60), Truncation: 0.2},
		{Box: geom.NewBox(0, 0, 60, 60), Truncation: 0.45},
		{Box: geom.NewBox(0, 0, 10, 10)},
	}
	for i, o := range objs {
		if Easy.Eligible(o) && !Moderate.Eligible(o) {
			t.Errorf("object %d: Easy but not Moderate", i)
		}
		if Moderate.Eligible(o) && !Hard.Eligible(o) {
			t.Errorf("object %d: Moderate but not Hard", i)
		}
	}
}

func TestDifficultyStrings(t *testing.T) {
	if Easy.String() != "Easy" || Moderate.String() != "Moderate" || Hard.String() != "Hard" {
		t.Fatal("difficulty names wrong")
	}
	if len(Difficulties()) != 3 {
		t.Fatal("Difficulties() wrong length")
	}
}
