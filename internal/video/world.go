// Package video synthesizes ground-truth video sequences with the
// temporal statistics the CaTDet paper relies on: objects enter the
// scene small or at the boundary, move smoothly with ego-camera drift,
// grow as they approach, suffer occlusion episodes, and exit. Pixel
// content is never generated — the detector layer is simulated at the
// bounding-box level — so a sequence is exactly a dataset.Sequence of
// per-frame labeled objects.
//
// Every sequence is deterministic in (preset, seed, sequence index).
package video

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// ClassSpec controls the population model of one object class.
type ClassSpec struct {
	Class dataset.Class

	// SpawnRate is the expected number of new objects per frame.
	SpawnRate float64

	// Spawn geometry: width is drawn log-uniformly in [MinWidth,
	// MaxWidth]; aspect (height/width) is Gaussian around Aspect with
	// AspectJitter std.
	MinWidth, MaxWidth float64
	Aspect             float64
	AspectJitter       float64

	// Motion: per-frame velocity std (pixels/frame) at spawn, and the
	// relative growth rate distribution (mean, std per frame). Positive
	// growth models approaching objects.
	SpeedStd   float64
	GrowthMean float64
	GrowthStd  float64

	// MeanLife is the expected lifetime in frames (exponential);
	// objects also die when they leave the frame.
	MeanLife float64

	// Occlusion: per-frame probability of starting an occlusion
	// episode, the episode's mean length in frames, and the probability
	// that an episode is heavy (KITTI level 2 rather than 1).
	OcclusionRate    float64
	OcclusionMeanLen float64
	HeavyOcclusionP  float64
}

// Preset fully describes a synthetic dataset.
type Preset struct {
	Name   string
	Width  int
	Height int
	FPS    float64

	NumSequences int
	FramesPerSeq int

	// Labeling: a frame f is labeled iff f % LabelEvery == LabelOffset.
	// LabelEvery <= 1 means every frame is labeled (KITTI-style dense
	// annotation).
	LabelEvery  int
	LabelOffset int

	// EgoDrift is the std of the camera's lateral random-walk velocity
	// in pixels/frame; it translates every object coherently.
	EgoDrift float64

	// HorizonY is the vertical center of spawn positions (objects appear
	// around the horizon line), as a fraction of frame height.
	HorizonY float64

	// DetectorNoise scales the detector noise channels (confidence
	// noise, localization jitter, false-positive rate, per-track bias)
	// of every model serving this preset: 0 or 1 means the calibrated
	// daylight profiles, >1 models degraded imaging — low light, rain,
	// motion blur — where the same network sees a harder input
	// distribution. The world's ground truth is unaffected; only the
	// simulated perception degrades. See detector.Profile.ScaleNoise.
	DetectorNoise float64

	Classes []ClassSpec
}

// object is the generator's internal mutable state for one live track.
type object struct {
	id      int
	spec    *ClassSpec
	cx, cy  float64
	w       float64
	aspect  float64
	vx, vy  float64
	growth  float64
	ttl     int // frames of life remaining
	occLeft int // frames of occlusion episode remaining
	occLvl  int
}

// Generate builds the full dataset for the preset. The same (preset,
// seed) always yields the same dataset.
func Generate(p Preset, seed int64) *dataset.Dataset {
	d := &dataset.Dataset{
		Name:    p.Name,
		Classes: classList(p),
	}
	for s := 0; s < p.NumSequences; s++ {
		d.Sequences = append(d.Sequences, *GenerateSequence(p, seed, s))
	}
	return d
}

// GenerateSequence builds a single sequence (index s) of the preset.
func GenerateSequence(p Preset, seed int64, s int) *dataset.Sequence {
	g := NewGrower(p, seed, s)
	g.Grow(p.FramesPerSeq)
	return g.Sequence()
}

// Grower incrementally extends one synthetic sequence. It owns the
// world's live generator state (RNG stream, live objects, ego motion),
// so growing a sequence frame by frame consumes the randomness in
// exactly the order a from-scratch generation at the final length
// would: every frame the grower emits is byte-identical to the same
// frame of GenerateSequence at any sufficient FramesPerSeq (the
// prefix-stability the serving layer's open-ended worlds rely on),
// while extension costs O(new frames) instead of the former
// regenerate-at-doubled-length O(n) per growth step.
type Grower struct {
	g   *generator
	seq *dataset.Sequence
}

// NewGrower prepares the world of sequence s of the preset (warm-up
// included) with zero frames emitted; Preset.FramesPerSeq is ignored —
// callers grow to whatever length they need.
func NewGrower(p Preset, seed int64, s int) *Grower {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(s)*7919 + 17))
	seq := &dataset.Sequence{
		ID:     fmt.Sprintf("%s-%04d", p.Name, s),
		Width:  p.Width,
		Height: p.Height,
		FPS:    p.FPS,
	}
	g := &generator{p: p, rng: rng, nextID: 1, spawnL: make([]float64, len(p.Classes))}
	for ci, c := range p.Classes {
		g.spawnL[ci] = math.Exp(-c.SpawnRate)
	}

	// Warm-up: populate the scene before frame 0 so sequences do not
	// start empty; objects alive at frame 0 have FirstFrame 0, matching
	// how a real clip starts mid-traffic.
	warm := int(3 * meanLifetime(p))
	for t := 0; t < warm; t++ {
		g.step()
	}
	return &Grower{g: g, seq: seq}
}

// Sequence returns the grown sequence. The same pointer is returned
// every time and Grow extends its Frames in place, so holders (e.g. a
// detection session Reset on it) observe the growth.
func (w *Grower) Sequence() *dataset.Sequence { return w.seq }

// Grow extends the sequence to at least n frames; shorter or equal
// targets are no-ops. Frames already emitted are never touched.
func (w *Grower) Grow(n int) {
	for f := len(w.seq.Frames); f < n; f++ {
		w.g.step()
		frame := dataset.Frame{
			Index:   f,
			Labeled: isLabeled(w.g.p, f),
			Objects: make([]dataset.Object, 0, len(w.g.live)),
		}
		for _, o := range w.g.live {
			frame.Objects = append(frame.Objects, w.g.observe(o))
		}
		w.seq.Frames = append(w.seq.Frames, frame)
	}
}

type generator struct {
	p      Preset
	rng    *rand.Rand
	live   []*object
	nextID int
	egoVX  float64
	// spawnL is exp(-SpawnRate) of each of p's classes, the Poisson
	// threshold of its spawn draw, computed once at construction.
	spawnL []float64
}

// step advances the world by one frame: ego drift, motion, lifecycle.
func (g *generator) step() {
	p := g.p
	// Ego velocity random walk, mildly mean-reverting.
	g.egoVX = 0.95*g.egoVX + g.rng.NormFloat64()*p.EgoDrift*0.3

	kept := g.live[:0]
	for _, o := range g.live {
		o.cx += o.vx + g.egoVX
		o.cy += o.vy
		o.w *= 1 + o.growth
		// Velocity and growth wander slightly.
		o.vx += g.rng.NormFloat64() * o.spec.SpeedStd * 0.1
		o.vy += g.rng.NormFloat64() * o.spec.SpeedStd * 0.05
		o.growth += g.rng.NormFloat64() * o.spec.GrowthStd * 0.1
		o.ttl--
		// Occlusion episode lifecycle.
		if o.occLeft > 0 {
			o.occLeft--
			if o.occLeft == 0 {
				o.occLvl = dataset.FullyVisible
			}
		} else if g.rng.Float64() < o.spec.OcclusionRate {
			o.occLeft = 1 + g.rng.Intn(int(2*o.spec.OcclusionMeanLen)+1)
			o.occLvl = dataset.PartlyOccluded
			if g.rng.Float64() < o.spec.HeavyOcclusionP {
				o.occLvl = dataset.LargelyOccluded
			}
		}
		if g.alive(o) {
			kept = append(kept, o)
		}
	}
	g.live = kept

	// Spawns: Poisson via Bernoulli thinning (rates are well below 1).
	for ci := range p.Classes {
		spec := &p.Classes[ci]
		n := poisson(g.rng, spec.SpawnRate, g.spawnL[ci])
		for i := 0; i < n; i++ {
			g.live = append(g.live, g.spawn(spec))
		}
	}
}

// alive reports whether the object should stay in the scene.
func (g *generator) alive(o *object) bool {
	if o.ttl <= 0 || o.w < 2 || o.w > float64(g.p.Width) {
		return false
	}
	b := o.box()
	vis := geom.CoverFraction(b, geom.NewBox(0, 0, float64(g.p.Width), float64(g.p.Height)))
	return vis > 0.15
}

// spawn creates a new object of the class. Objects enter either small
// near the horizon (approaching traffic) or at a lateral frame edge.
func (g *generator) spawn(spec *ClassSpec) *object {
	p := g.p
	rng := g.rng
	o := &object{
		id:     g.nextID,
		spec:   spec,
		aspect: math.Max(0.3, spec.Aspect+rng.NormFloat64()*spec.AspectJitter),
		ttl:    1 + int(rng.ExpFloat64()*spec.MeanLife),
	}
	g.nextID++

	logMin, logMax := math.Log(spec.MinWidth), math.Log(spec.MaxWidth)
	fromEdge := rng.Float64() < 0.4
	if fromEdge {
		// Edge entries are larger (nearby objects walking/driving in)
		// and start mostly outside the frame, so they appear heavily
		// truncated at first.
		o.w = math.Exp(logMin + (0.35+0.35*rng.Float64())*(logMax-logMin))
		if rng.Float64() < 0.5 {
			o.cx = -o.w * 0.32
			o.vx = math.Abs(rng.NormFloat64()*spec.SpeedStd) + spec.SpeedStd
		} else {
			o.cx = float64(p.Width) + o.w*0.32
			o.vx = -math.Abs(rng.NormFloat64()*spec.SpeedStd) - spec.SpeedStd
		}
		o.cy = float64(p.Height) * (p.HorizonY + 0.25*rng.Float64())
		o.growth = rng.NormFloat64() * spec.GrowthStd
	} else {
		// Horizon entries start small and mostly grow (approaching).
		o.w = math.Exp(logMin + 0.12*rng.Float64()*(logMax-logMin))
		o.cx = float64(p.Width) * rng.Float64()
		o.cy = float64(p.Height) * (p.HorizonY + 0.1*rng.NormFloat64())
		o.vx = rng.NormFloat64() * spec.SpeedStd
		o.vy = rng.NormFloat64() * spec.SpeedStd * 0.3
		o.growth = math.Abs(spec.GrowthMean + rng.NormFloat64()*spec.GrowthStd)
	}
	return o
}

func (o *object) box() geom.Box {
	return geom.NewBoxCenter(o.cx, o.cy, o.w, o.w*o.aspect)
}

// observe converts internal state to the labeled ground-truth object,
// computing truncation from frame overlap and clipping the box.
func (g *generator) observe(o *object) dataset.Object {
	full := o.box()
	frame := geom.NewBox(0, 0, float64(g.p.Width), float64(g.p.Height))
	clipped := full.Intersect(frame)
	trunc := 0.0
	if full.Area() > 0 {
		trunc = 1 - clipped.Area()/full.Area()
	}
	if trunc < 0 {
		trunc = 0
	}
	if trunc > 1 {
		trunc = 1
	}
	if clipped.Empty() {
		// alive() keeps visibility above 15%, so this should not occur;
		// guard anyway with a sliver at the boundary.
		clipped = geom.NewBox(0, 0, 2, 2)
		trunc = 1
	}
	return dataset.Object{
		TrackID:    o.id,
		Class:      o.spec.Class,
		Box:        clipped,
		Occlusion:  o.occLvl,
		Truncation: trunc,
	}
}

func isLabeled(p Preset, f int) bool {
	if p.LabelEvery <= 1 {
		return true
	}
	return f%p.LabelEvery == p.LabelOffset
}

// Rescale returns a copy of the preset whose per-frame dynamics are
// recalibrated for playback at fps frames per second instead of p.FPS:
// one frame of the rescaled preset advances the world by 1/fps seconds
// of the original preset's per-second statistics. Velocities, growth,
// spawn and occlusion rates scale by p.FPS/fps; lifetimes and episode
// lengths (in frames) scale by the inverse, so mean object lifetime,
// population density and motion in *seconds* are preserved. Rescaling
// to the preset's own rate returns the preset unchanged, so same-rate
// worlds stay byte-identical.
func (p Preset) Rescale(fps float64) Preset {
	if fps <= 0 || p.FPS <= 0 || fps == p.FPS {
		return p
	}
	q := p.FPS / fps // seconds per new frame, in old-frame units
	p.EgoDrift *= q
	classes := make([]ClassSpec, len(p.Classes))
	for i, c := range p.Classes {
		c.SpawnRate *= q
		c.SpeedStd *= q
		c.GrowthMean *= q
		c.GrowthStd *= q
		c.MeanLife /= q
		c.OcclusionRate *= q
		c.OcclusionMeanLen /= q
		classes[i] = c
	}
	p.Classes = classes
	p.FPS = fps
	return p
}

// ClassList returns the preset's class vocabulary in declaration
// order, deduplicated — the same list Generate records on the dataset.
func (p Preset) ClassList() []dataset.Class { return classList(p) }

func classList(p Preset) []dataset.Class {
	seen := map[dataset.Class]bool{}
	var out []dataset.Class
	for _, c := range p.Classes {
		if !seen[c.Class] {
			seen[c.Class] = true
			out = append(out, c.Class)
		}
	}
	return out
}

func meanLifetime(p Preset) float64 {
	if len(p.Classes) == 0 {
		return 1
	}
	total := 0.0
	for _, c := range p.Classes {
		total += c.MeanLife
	}
	return total / float64(len(p.Classes))
}

// poisson draws a Poisson variate of mean lambda via Knuth's method,
// given l = exp(-lambda); rates here are small (< 1) so this is
// efficient.
func poisson(rng *rand.Rand, lambda, l float64) int {
	if lambda <= 0 {
		return 0
	}
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
