package serve

import (
	"context"
	"testing"
)

// TestIncrementalWorldMatchesFromScratch pins the serving layer's lazy
// world growth: a Server whose streams are grown frame by frame (and in
// one submission jump) holds sequences byte-identical to a from-scratch
// GenerateSequence at the final length. This is the regrowth-
// equivalence guarantee that replaced the regenerate-at-doubled-length
// scheme: served frames are never regenerated, only extended.
func TestIncrementalWorldMatchesFromScratch(t *testing.T) {
	cfg := testConfig()
	cfg.Streams = 2
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Stream 0 grows frame by frame; stream 1 jumps straight to a high
	// frame index (sparse submission must still materialize the prefix).
	const last = 130
	for fr := 0; fr <= last; fr++ {
		if err := srv.Submit(0, fr, float64(fr)/cfg.FPS); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Submit(1, last, float64(last)/cfg.FPS); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	for s := 0; s < cfg.Streams; s++ {
		checkWorld(t, srv.Config(), s, srv.f.worlds.seq(s), last+1)
	}
}
