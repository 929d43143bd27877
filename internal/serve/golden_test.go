package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/video"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// goldenConfig is the overload scenario pinned since PR 2: six hot
// streams on one executor with a tight queue cap and stale skip, so
// every backpressure path is exercised.
func goldenConfig() Config {
	return Config{
		Spec: sim.SystemSpec{
			Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50",
			Cfg: core.DefaultConfig(),
		},
		Preset:       video.MiniKITTIPreset(),
		Seed:         1,
		Streams:      6,
		FPS:          30,
		Arrivals:     Poisson,
		Duration:     4,
		Executors:    1,
		QueueCap:     4,
		MaxStaleness: 0.3,
	}
}

// TestGoldenFIFO pins the full serving output byte-for-byte: the
// overload scenario at sched=fifo, batch=1, and the same load on two
// executors fusing up to four frames per launch under EDF, the batched
// path where one round dispatches several launches whose completions
// can settle out of dispatch order. Run with -update to rewrite the goldens
// after an intentional change; anything else that moves these bytes is
// a regression in the serving engine.
func TestGoldenFIFO(t *testing.T) {
	batched := goldenConfig()
	batched.Executors = 2
	batched.BatchSize = 4
	batched.Scheduler = "edf"
	for _, tc := range []struct {
		name, file string
		cfg        Config
	}{
		{"fifo", "golden_fifo.json", goldenConfig()},
		{"batched-edf", "golden_batched_edf.json", batched},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := json.MarshalIndent(mustRun(t, tc.cfg), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output drifted from %s (run with -update if intentional)\ngot:\n%s", path, got)
			}
		})
	}
}
