package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/serve/control"
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

// goldenScenario is one scenario a testdata golden file pins.
type goldenScenario struct {
	name, file string
	cfg        Config
}

// goldenScenarios are the three scenarios TestGoldenFIFO pins: the
// overload scenario at sched=fifo, batch=1; the same load on two
// executors fusing up to four frames per launch under EDF, the batched
// path where one round dispatches several launches whose completions
// can settle out of dispatch order; and the same load under the
// baseline controller with EDF and two priority classes, so mode
// switches, fleet batch resizes and deadline rescales all move the
// books.
func goldenScenarios() []goldenScenario {
	batched := goldenConfig()
	batched.Executors = 2
	batched.BatchSize = 4
	batched.Scheduler = "edf"
	adaptive := goldenConfig()
	adaptive.Scheduler = "edf"
	adaptive.Priorities = []int{1, 0, 1, 0, 1, 0}
	adaptive.Control = control.Config{
		Kind:      control.KindBaseline,
		HighDepth: 2, LowDepth: 1,
		MaxBatch: 4, BatchDepth: 3,
	}
	return []goldenScenario{
		{"fifo", "golden_fifo.json", goldenConfig()},
		{"batched-edf", "golden_batched_edf.json", batched},
		{"adaptive", "golden_adaptive.json", adaptive},
	}
}

// TestGoldenFIFO pins the full serving output of goldenScenarios
// byte-for-byte. Run with -update to rewrite the goldens after an
// intentional change; anything else that moves these bytes is a
// regression in the serving engine.
func TestGoldenFIFO(t *testing.T) {
	for _, tc := range goldenScenarios() {
		t.Run(tc.name, func(t *testing.T) {
			r := mustRun(t, tc.cfg)
			if tc.cfg.Control.Active() && (r.ModeSwitches == 0 || r.Fleet.Degraded == 0) {
				t.Fatalf("controller idle: %d mode switches, %d degraded frames", r.ModeSwitches, r.Fleet.Degraded)
			}
			got, err := json.MarshalIndent(r, "", "  ")
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
