package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/video"
)

// checkWorld fails unless got holds exactly the first n frames of a
// from-scratch GenerateSequence of stream s of the normalized config.
func checkWorld(t *testing.T, norm Config, s int, got *dataset.Sequence, n int) {
	t.Helper()
	p := norm.Preset
	p.FPS = norm.FPS
	p.FramesPerSeq = n
	want := video.GenerateSequence(p, norm.Seed, s)
	if len(got.Frames) != n {
		t.Fatalf("stream %d grew to %d frames, want %d", s, len(got.Frames), n)
	}
	if got.ID != want.ID {
		t.Fatalf("stream %d sequence ID %q, want %q", s, got.ID, want.ID)
	}
	for fi := range want.Frames {
		fw, fg := want.Frames[fi], got.Frames[fi]
		if fw.Index != fg.Index || len(fw.Objects) != len(fg.Objects) {
			t.Fatalf("stream %d frame %d differs from from-scratch generation", s, fi)
		}
		for oi := range fw.Objects {
			if fw.Objects[oi] != fg.Objects[oi] {
				t.Fatalf("stream %d frame %d object %d differs from from-scratch generation", s, fi, oi)
			}
		}
	}
}

// TestSharedWorldsMatchPrivate pins the cluster's world sharing: two
// Servers over one Worlds, fed stream 0's frames alternately (so both
// step it, and their steps can overlap) and stream 1's frames both,
// produce books byte-identical to Servers with private worlds fed the
// same frames, at every StepWorkers fan-out. The shared worlds end up
// equal to a from-scratch generation, grown once to the largest frame.
func TestSharedWorldsMatchPrivate(t *testing.T) {
	const frames = 90
	for _, workers := range []int{1, 2, 4} {
		cfg := testConfig()
		cfg.Streams = 2
		cfg.Executors = 2
		cfg.QueueCap = -1
		cfg.StepWorkers = workers
		worlds, err := NewWorlds(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var shared, private [2]*Server
		for i := range shared {
			if shared[i], err = NewShared(cfg, worlds); err != nil {
				t.Fatal(err)
			}
			if private[i], err = New(cfg); err != nil {
				t.Fatal(err)
			}
		}
		submit := func(i, stream, k int) {
			at := float64(k) / cfg.FPS
			if err := shared[i].Submit(stream, k, at); err != nil {
				t.Fatal(err)
			}
			if err := private[i].Submit(stream, k, at); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < frames; k++ {
			submit(k%2, 0, k)
			submit(0, 1, k)
			submit(1, 1, k)
		}
		for i := range shared {
			got, err := shared[i].Drain(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want, err := private[i].Drain(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if g, w := marshal(t, got), marshal(t, want); !bytes.Equal(g, w) {
				t.Errorf("workers=%d server %d: shared-world books differ from private\nshared:  %s\nprivate: %s",
					workers, i, g, w)
			}
			if got.Fleet.Served != got.Fleet.Arrived {
				t.Fatalf("workers=%d server %d: served %d of %d frames; every frame must be stepped",
					workers, i, got.Fleet.Served, got.Fleet.Arrived)
			}
			shared[i].Close()
			private[i].Close()
		}
		for s := 0; s < cfg.Streams; s++ {
			checkWorld(t, shared[0].f.cfg, s, worlds.seq(s), frames)
		}
	}
}

// TestWorldsWarmUpMatchesGenerate pins the parallel world warm-up:
// worlds built at StepWorkers 1, 2 and 8 — more streams than workers,
// one stream at its own rescaled rate — each grow to exactly the bytes
// of a from-scratch GenerateSequence of their stream, whichever
// goroutine built the grower.
func TestWorldsWarmUpMatchesGenerate(t *testing.T) {
	const frames = 40
	for _, workers := range []int{1, 2, 8} {
		cfg := testConfig()
		cfg.Streams = 11
		cfg.StreamFPS = []float64{15, 15, 15, 30, 15, 15, 15, 15, 15, 15, 15}
		cfg.StepWorkers = workers
		worlds, err := NewWorlds(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < cfg.Streams; s++ {
			worlds.frame(s, frames-1)
			p := cfg.Preset
			p.FPS = cfg.FPS
			p = p.Rescale(cfg.StreamFPS[s])
			p.FramesPerSeq = frames
			want, err := json.Marshal(video.GenerateSequence(p, cfg.Seed, s))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(worlds.seq(s))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("workers=%d stream %d: world differs from GenerateSequence", workers, s)
			}
		}
	}
}

// TestNewSharedRejectsMismatchedWorlds pins that a Server refuses worlds
// built for a config whose worlds would differ, field by field, and
// accepts worlds whose config differs only in what worlds do not read.
func TestNewSharedRejectsMismatchedWorlds(t *testing.T) {
	base := testConfig()
	worlds, err := NewWorlds(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string // "" accepts
	}{
		{"fleet shape only", func(c *Config) { c.Executors, c.QueueCap, c.StepWorkers = 3, 2, 2 }, ""},
		{"streams", func(c *Config) { c.Streams = 3 }, "serve: Worlds: streams 4, config streams 3"},
		{"seed", func(c *Config) { c.Seed = 2 }, "serve: Worlds: seed 1, config seed 2"},
		{"preset", func(c *Config) { c.Preset = video.KITTIPreset() }, `serve: Worlds: preset "kitti-mini", config preset "kitti-sim"`},
		{"preset content", func(c *Config) { c.Preset.EgoDrift *= 2 }, `serve: Worlds: preset "kitti-mini" differs`},
		{"fps", func(c *Config) { c.FPS = 12 }, "serve: Worlds: fps 15, config fps 12"},
		{"stream fps", func(c *Config) { c.StreamFPS = []float64{15, 15, 15, 30} }, "serve: Worlds: stream fps [], config stream fps [15 15 15 30]"},
	} {
		cfg := base
		tc.edit(&cfg)
		srv, err := NewShared(cfg, worlds)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected a matching config: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)):
			t.Errorf("%s: got error %v, want prefix %q", tc.name, err, tc.want)
		}
		if srv != nil {
			srv.Close()
		}
	}
	if _, err := NewShared(base, nil); err == nil || err.Error() != "serve: Worlds: nil" {
		t.Errorf("nil worlds: got error %v", err)
	}
}
