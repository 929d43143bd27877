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

// TestPR2DynamicsUnchanged replays the golden scenario against the
// output captured from the PR 2 loop (before the scheduler was
// extracted) and requires every event-loop quantity — served/dropped
// counts, latencies, drop rates, queue depth, utilization — to match
// exactly. Throughput is excluded by design: PR 2 divided it by
// Duration while depth/utilization divided by the makespan (the mixed
// time horizons this PR fixes); the dynamics it derives from are
// checked via Served.
func TestPR2DynamicsUnchanged(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_pr2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want Result
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	got := mustRun(t, goldenConfig())
	sameStats := func(label string, g, w StreamStats) {
		t.Helper()
		g.Throughput, w.Throughput = 0, 0
		gb := marshal(t, &Result{Fleet: g})
		wb := marshal(t, &Result{Fleet: w})
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: dynamics drifted from PR 2\n got: %s\nwant: %s", label, gb, wb)
		}
	}
	sameStats("fleet", got.Fleet, want.Fleet)
	if len(got.PerStream) != len(want.PerStream) {
		t.Fatalf("per-stream rows: %d vs %d", len(got.PerStream), len(want.PerStream))
	}
	for i := range want.PerStream {
		sameStats(got.PerStream[i].ID, got.PerStream[i], want.PerStream[i])
	}
	if got.AvgQueueDepth != want.AvgQueueDepth {
		t.Errorf("AvgQueueDepth %v, PR 2 had %v", got.AvgQueueDepth, want.AvgQueueDepth)
	}
	if got.Utilization != want.Utilization {
		t.Errorf("Utilization %v, PR 2 had %v", got.Utilization, want.Utilization)
	}
	if got.MaxQueueDepth != want.MaxQueueDepth {
		t.Errorf("MaxQueueDepth %v, PR 2 had %v", got.MaxQueueDepth, want.MaxQueueDepth)
	}
	if got.MaxService != want.MaxService {
		t.Errorf("MaxService %v, PR 2 had %v", got.MaxService, want.MaxService)
	}
}
