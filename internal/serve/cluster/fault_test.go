package cluster

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
)

// faultCluster is the frozen kill-recovery scenario the failover matrix
// pins: the kitchen-sink cluster with shard 0 killed mid-burst and
// revived 1.5s later.
func faultCluster(shards int, policy FailoverPolicy) Config {
	cfg := everythingOn()
	cfg.Shards = shards
	cfg.GPUTiers = []string{"titanx", "v100", "k80", "v100"}[:shards]
	cfg.Faults = FaultPlan{
		Faults: []Fault{
			{Time: 1.0, Kind: FaultKill, Shard: 0},
			{Time: 2.5, Kind: FaultRevive, Shard: 0},
		},
		Failover: policy,
	}
	return cfg
}

// checkConservation pins the cluster-wide frame ledger under faults:
// with replays subtracted, every offered frame reaches exactly one
// terminal outcome, and the failover channels reconcile.
func checkConservation(t *testing.T, r *Result) {
	t.Helper()
	rows := append([]serve.StreamStats{r.Fleet}, r.PerStream...)
	for _, row := range rows {
		if got := row.Served + row.DroppedQueue + row.DroppedStale + row.DroppedFailover; got != row.Arrived {
			t.Errorf("%s: served %d + drops %d+%d + dropped_failover %d = %d != arrived %d",
				row.ID, row.Served, row.DroppedQueue, row.DroppedStale, row.DroppedFailover, got, row.Arrived)
		}
		if row.FailedOver != row.Replayed+row.DroppedFailover {
			t.Errorf("%s: failed_over %d != replayed %d + dropped_failover %d",
				row.ID, row.FailedOver, row.Replayed, row.DroppedFailover)
		}
	}
}

// TestFailoverDeterminism is the headline contract of the failure
// subsystem: with shard kills, revivals and every failover policy live,
// the merged books stay byte-identical across reruns and StepWorkers at
// every shard count — including the one-shard cluster, whose kill
// orphans the whole stream space until the revival. A seeded stochastic
// MTBF/MTTR plan pins the same for the generated schedule.
func TestFailoverDeterminism(t *testing.T) {
	for _, policy := range []FailoverPolicy{FailoverReplay, FailoverDrop, FailoverDegrade} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", policy, shards), func(t *testing.T) {
				var golden []byte
				var first *Result
				for _, workers := range []int{1, 4, 1} { // trailing 1 = rerun
					cfg := faultCluster(shards, policy)
					cfg.Base.StepWorkers = workers
					r := mustRun(t, cfg)
					b := marshal(t, r)
					if golden == nil {
						golden, first = b, r
					} else if !bytes.Equal(golden, b) {
						t.Fatalf("faulted books diverge at StepWorkers=%d", workers)
					}
				}
				if first.Faults == nil {
					t.Fatal("faulted run has no fault ledger")
				}
				if first.Faults.Kills != 1 || first.Faults.Revivals != 1 {
					t.Errorf("ledger books %d kills, %d revivals, want 1 and 1", first.Faults.Kills, first.Faults.Revivals)
				}
				if first.Fleet.FailedOver == 0 {
					t.Error("mid-burst kill seized no frames")
				}
				switch policy {
				case FailoverDrop:
					if first.Fleet.Replayed != 0 {
						t.Errorf("drop failover replayed %d frames", first.Fleet.Replayed)
					}
					if first.Fleet.DroppedFailover != first.Fleet.FailedOver {
						t.Errorf("drop failover: dropped %d of %d seized", first.Fleet.DroppedFailover, first.Fleet.FailedOver)
					}
				default:
					if first.Fleet.DroppedFailover != 0 {
						t.Errorf("%s failover dropped %d frames", policy, first.Fleet.DroppedFailover)
					}
					if first.Fleet.Replayed != first.Fleet.FailedOver {
						t.Errorf("%s failover: replayed %d of %d seized", policy, first.Fleet.Replayed, first.Fleet.FailedOver)
					}
				}
				checkConservation(t, first)
			})
		}
	}
	t.Run("stochastic", func(t *testing.T) {
		var golden []byte
		var first *Result
		for _, workers := range []int{1, 4, 1} {
			cfg := everythingOn()
			cfg.Shards = 2
			cfg.GPUTiers = []string{"titanx", "v100"}
			cfg.Faults = FaultPlan{MTBF: 1.2, MTTR: 0.8}
			cfg.Base.StepWorkers = workers
			r := mustRun(t, cfg)
			b := marshal(t, r)
			if golden == nil {
				golden, first = b, r
			} else if !bytes.Equal(golden, b) {
				t.Fatalf("stochastic books diverge at StepWorkers=%d", workers)
			}
		}
		if first.Faults == nil || first.Faults.Kills == 0 {
			t.Fatalf("MTBF 1.2 over 4s injected no kills: %+v", first.Faults)
		}
		checkConservation(t, first)
	})
}

// TestNoFaultPlanMatchesCluster pins the zero-cost guarantee: a cluster
// built with an explicit empty FaultPlan reproduces the pre-subsystem
// golden bytes exactly — no new JSON fields leak into fault-free books,
// no control decision shifts.
func TestNoFaultPlanMatchesCluster(t *testing.T) {
	cfg := everythingOn()
	cfg.Shards = 2
	cfg.GPUTiers = []string{"titanx", "v100"}
	cfg.Faults = FaultPlan{}
	got := marshal(t, mustRun(t, cfg))
	want, err := os.ReadFile(filepath.Join("testdata", "golden_cluster.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("empty FaultPlan diverges from the frozen cluster golden:\n  want: %s\n  got:  %s", want, got)
	}
}

// TestRecoveryLatencyBounded pins the recovery metric: the revived
// shard books one kill, a downtime covering its dead window, and a
// recovery latency (kill to first served frame) that is positive and
// bounded by the scenario.
func TestRecoveryLatencyBounded(t *testing.T) {
	r := mustRun(t, faultCluster(2, FailoverReplay))
	fb := r.PerShard[0].Fault
	if fb == nil {
		t.Fatal("killed shard has no fault ledger")
	}
	if fb.Kills != 1 {
		t.Fatalf("shard 0 books %d kills, want 1", fb.Kills)
	}
	// Killed at 1.0, revived at 2.5, capacity back at 2.5+ScaleUpLatency.
	if fb.Downtime < 1.5 || fb.Downtime > 3 {
		t.Errorf("downtime %.2fs outside the dead window [1.5, 3]", fb.Downtime)
	}
	if len(fb.RecoveryLatencies) != 1 {
		t.Fatalf("recovery latencies %v, want exactly 1 completed recovery", fb.RecoveryLatencies)
	}
	lat := fb.RecoveryLatencies[0]
	if lat <= fb.Downtime {
		t.Errorf("recovery latency %.2fs not after the downtime %.2fs — served while dead?", lat, fb.Downtime)
	}
	if lat > r.LastEventAt {
		t.Errorf("recovery latency %.2fs exceeds the makespan %.2fs", lat, r.LastEventAt)
	}
	if r.Faults.Availability <= 0 || r.Faults.Availability >= 1 {
		t.Errorf("availability %.3f outside (0,1) for a cluster with downtime", r.Faults.Availability)
	}
	if want := r.ServedPerDollar * r.Faults.Availability; r.Faults.AvailServedPerDollar != want {
		t.Errorf("avail-adjusted served/$ = %v, want %v", r.Faults.AvailServedPerDollar, want)
	}
}

// TestBulkRebalanceMovesTowardFastTiers pins the tier-aware planner:
// killing the fast v100 shard piles its streams onto the slow k80, and
// the revival's bulk rebalance hands the majority back to the v100
// (stream targets are apportioned by tier speed, not spread evenly).
func TestBulkRebalanceMovesTowardFastTiers(t *testing.T) {
	cfg := everythingOn()
	cfg.Shards = 2
	cfg.GPUTiers = []string{"k80", "v100"}
	cfg.Faults = FaultPlan{Faults: []Fault{
		{Time: 1.0, Kind: FaultKill, Shard: 1},
		{Time: 2.0, Kind: FaultRevive, Shard: 1},
	}}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Ingest(serve.ScheduleSource(r.Config().Base)); err != nil {
		t.Fatal(err)
	}
	res, err := r.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Rebalanced == 0 {
		t.Fatal("revival triggered no bulk rebalance moves")
	}
	_, owner := r.Placement()
	fast := 0
	for _, o := range owner {
		if o == 1 {
			fast++
		}
	}
	// Speeds 2.3 vs 0.45: the v100's largest-remainder share of 6
	// streams is 5.
	if fast < 4 {
		t.Errorf("v100 owns %d of %d streams after the rebalance, want the fast-tier majority (>=4); owners %v",
			fast, cfg.Base.Streams, owner)
	}
	checkConservation(t, res)
}

// TestLastShardDeathDrains pins the park-guard interaction the failure
// subsystem must not break: when every shard dies and nothing revives,
// Drain still completes — the orphaned backlog is replayed through a
// last-resort revival — and the merged ledger loses no frame.
func TestLastShardDeathDrains(t *testing.T) {
	cfg := everythingOn()
	cfg.Shards = 2
	cfg.GPUTiers = []string{"titanx", "v100"}
	cfg.Faults = FaultPlan{Faults: []Fault{
		{Time: 1.0, Kind: FaultKill, Shard: 0},
		{Time: 1.5, Kind: FaultKill, Shard: 1},
	}}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Ingest(serve.ScheduleSource(r.Config().Base)); err != nil {
		t.Fatal(err)
	}
	res, err := r.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Kills != 2 {
		t.Errorf("ledger books %d kills, want 2", res.Faults.Kills)
	}
	if res.Faults.Revivals != 1 {
		t.Errorf("last-resort revival not booked: %d revivals", res.Faults.Revivals)
	}
	st := r.Stats()
	if st.Orphaned != 0 {
		t.Errorf("%d frames still orphaned after Drain", st.Orphaned)
	}
	if st.QueueDepth != 0 || st.BusyExecutors != 0 {
		t.Errorf("drained cluster still busy: %+v", st)
	}
	// No frame lost: the drained ledger balances even though every
	// stream crossed at least one dead shard.
	checkConservation(t, res)
	if res.Fleet.Served == 0 {
		t.Error("nothing served — the revival never processed the orphaned backlog")
	}
}

// TestDegradeFailoverPins pins the degrade policy's semantics: the dead
// shard's streams run proposal-only on their fallback shards while it
// is down, so the degrade run serves strictly more degraded frames than
// the plain replay run of the same scenario.
func TestDegradeFailoverPins(t *testing.T) {
	replay := mustRun(t, faultCluster(2, FailoverReplay))
	degrade := mustRun(t, faultCluster(2, FailoverDegrade))
	if degrade.Fleet.Degraded <= replay.Fleet.Degraded {
		t.Errorf("degrade failover served %d degraded frames, replay %d — the pin never bit",
			degrade.Fleet.Degraded, replay.Fleet.Degraded)
	}
	if degrade.Fleet.Arrived != replay.Fleet.Arrived {
		t.Errorf("failover policy changed offered load: %d vs %d", degrade.Fleet.Arrived, replay.Fleet.Arrived)
	}
	checkConservation(t, degrade)
}

// TestOnlineShardAddition pins add-shard: the cluster grows mid-run,
// the new shard joins the ring under a fresh tier, and the bulk
// rebalancer hands it streams.
func TestOnlineShardAddition(t *testing.T) {
	cfg := everythingOn()
	cfg.Shards = 2
	cfg.GPUTiers = []string{"titanx", "titanx"}
	cfg.Faults = FaultPlan{Faults: []Fault{
		{Time: 1.5, Kind: FaultAddShard, Tier: "v100"},
	}}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Ingest(serve.ScheduleSource(r.Config().Base)); err != nil {
		t.Fatal(err)
	}
	res, err := r.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.ShardsAdded != 1 {
		t.Fatalf("ledger books %d added shards, want 1", res.Faults.ShardsAdded)
	}
	if len(res.PerShard) != 3 {
		t.Fatalf("merged %d shard books, want 3", len(res.PerShard))
	}
	nb := res.PerShard[2]
	if nb.Tier != "v100" {
		t.Errorf("added shard tier %q, want v100", nb.Tier)
	}
	if nb.Fault == nil || nb.Fault.BornAt != 1.5 {
		t.Errorf("added shard fault ledger %+v, want BornAt 1.5", nb.Fault)
	}
	if len(nb.Streams) == 0 {
		t.Error("the rebalancer handed the fast added shard no streams")
	}
	if nb.Result.Fleet.Served == 0 {
		t.Error("added shard never served a frame")
	}
	checkConservation(t, res)
}

// TestFaultPlanValidation pins the field-path errors of the FaultPlan
// config surface.
func TestFaultPlanValidation(t *testing.T) {
	kill := func(shard int, at float64) []Fault {
		return []Fault{{Time: at, Kind: FaultKill, Shard: shard}}
	}
	rejectBase := baseConfig()
	rejectBase.Reconnect = serve.ReconnectReject
	cases := []struct {
		name      string
		cfg       Config
		wantField string
	}{
		{"unknown failover", Config{Base: baseConfig(), Faults: FaultPlan{Faults: kill(0, 1), Failover: "teleport"}}, "Faults.Failover"},
		{"unknown failover on a disabled plan", Config{Base: baseConfig(), Faults: FaultPlan{Failover: "nope"}}, "Faults.Failover"},
		{"negative mtbf", Config{Base: baseConfig(), Faults: FaultPlan{MTBF: -1}}, "Faults.MTBF"},
		{"negative mttr", Config{Base: baseConfig(), Faults: FaultPlan{MTBF: 2, MTTR: -1}}, "Faults.MTTR"},
		{"negative time", Config{Base: baseConfig(), Faults: FaultPlan{Faults: kill(0, -1)}}, "Faults.Faults[0].Time"},
		{"shard out of range", Config{Base: baseConfig(), Faults: FaultPlan{Faults: kill(7, 1)}}, "Faults.Faults[0].Shard"},
		{"unknown kind", Config{Base: baseConfig(), Faults: FaultPlan{Faults: []Fault{{Time: 1, Kind: "explode"}}}}, "Faults.Faults[0].Kind"},
		{"unknown tier", Config{Base: baseConfig(), Faults: FaultPlan{Faults: []Fault{{Time: 1, Kind: FaultAddShard, Tier: "tpu"}}}}, "Faults.Faults[0].Tier"},
		{"replay vs reject", Config{Base: rejectBase, Faults: FaultPlan{Faults: kill(0, 1)}}, "Faults.Failover"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatalf("config validated: %+v", tc.cfg.Faults)
			}
			if !strings.Contains(err.Error(), tc.wantField) {
				t.Errorf("error %q does not name field %q", err, tc.wantField)
			}
		})
	}
	// Killing a shard that an add-shard fault creates later is valid.
	ok := Config{Base: baseConfig(), Faults: FaultPlan{Faults: []Fault{
		{Time: 1, Kind: FaultAddShard},
		{Time: 2, Kind: FaultKill, Shard: 2},
	}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("kill of an added shard rejected: %v", err)
	}
}
