package serve

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/video"
)

// Worlds holds the synthetic video of every stream of a serving
// config. Each stream's world grows on demand, frame by frame, under
// its own lock, so Servers that serve the same streams — the shards of
// a cluster — share one Worlds instead of each growing a copy (see
// NewShared). A world depends only on (preset, seed, stream): the
// grower is prefix-stable, so which Server grows a frame, and when,
// never shows in the frame.
type Worlds struct {
	streams []world

	// The config fields world content depends on, kept to reject a
	// Server whose config would expect different worlds.
	seed      int64
	preset    video.Preset
	fps       float64
	streamFPS []float64
}

// world is one stream's grower. mu guards the growth and every read of
// its sequence's Frames; the sequence's ID, Width and Height never
// change after construction and are read without it.
type world struct {
	mu sync.Mutex
	g  *video.Grower
}

// NewWorlds builds the worlds of a config's streams, with zero frames
// grown. The config is normalized and validated as New would see it.
func NewWorlds(cfg Config) (*Worlds, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return newWorlds(cfg), nil
}

// newWorlds builds the worlds of a normalized, validated config. The
// base world preset runs at the offered rate: frame k of a stream is
// the world 1/FPS seconds after frame k-1. A stream whose StreamFPS
// overrides the rate gets its own preset rescaled to that rate, so its
// frame content and arrival cadence agree — the same per-second
// motion, lifetime and density statistics as its same-rate neighbors,
// sampled at its own cadence.
//
// The growers' warm-ups run on min(StepWorkers, Streams) goroutines,
// the server's existing bound on CPU fan-out. Stream s always gets
// NewGrower(p, Seed, s), which draws only from its own seeded RNG, so
// which goroutine builds it, and when, never shows in its frames.
func newWorlds(cfg Config) *Worlds {
	w := &Worlds{
		streams:   make([]world, cfg.Streams),
		seed:      cfg.Seed,
		preset:    cfg.Preset,
		fps:       cfg.FPS,
		streamFPS: slices.Clone(cfg.StreamFPS),
	}
	base := cfg.Preset
	base.FPS = cfg.FPS
	build := func(s int) {
		p := base
		if len(cfg.StreamFPS) > 0 && cfg.StreamFPS[s] != cfg.FPS {
			p = base.Rescale(cfg.StreamFPS[s])
		}
		w.streams[s].g = video.NewGrower(p, cfg.Seed, s)
	}
	workers := min(cfg.StepWorkers, cfg.Streams)
	if workers <= 1 {
		for s := range w.streams {
			build(s)
		}
		return w
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= cfg.Streams {
					return
				}
				build(s)
			}
		}()
	}
	wg.Wait()
	return w
}

// match reports the first field of a normalized config whose worlds
// differ from w's, as a field-path error.
func (w *Worlds) match(cfg Config) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("serve: Worlds: %s", fmt.Sprintf(format, args...))
	}
	switch {
	case len(w.streams) != cfg.Streams:
		return fail("streams %d, config streams %d", len(w.streams), cfg.Streams)
	case w.seed != cfg.Seed:
		return fail("seed %d, config seed %d", w.seed, cfg.Seed)
	case w.preset.Name != cfg.Preset.Name:
		return fail("preset %q, config preset %q", w.preset.Name, cfg.Preset.Name)
	case !reflect.DeepEqual(w.preset, cfg.Preset):
		return fail("preset %q differs from the config's preset of that name", w.preset.Name)
	case w.fps != cfg.FPS:
		return fail("fps %v, config fps %v", w.fps, cfg.FPS)
	case !slices.Equal(w.streamFPS, cfg.StreamFPS):
		return fail("stream fps %v, config stream fps %v", w.streamFPS, cfg.StreamFPS)
	}
	return nil
}

// seq returns stream s's sequence. Only its immutable ID, Width and
// Height may be read through it without the stream's lock.
func (w *Worlds) seq(s int) *dataset.Sequence { return w.streams[s].g.Sequence() }

// frame returns frame k of stream s, growing the world to it first. A
// grown frame's Objects are never written again, so the returned frame
// stays valid after the lock is released, while another Server grows
// the same world further.
func (w *Worlds) frame(s, k int) detector.Frame {
	wd := &w.streams[s]
	wd.mu.Lock()
	wd.g.Grow(k + 1)
	fr := detector.FrameOf(wd.g.Sequence(), k)
	wd.mu.Unlock()
	return fr
}
