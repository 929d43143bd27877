package catdet

// End-to-end tests through the public facade, including the oracle
// invariant: a pipeline fed a perfect detector must produce perfect
// metrics, which exercises every layer (world, systems, tracker,
// matching, AP, delay) at once. The serving tests drive the facade's
// ServeConfig/Serve/NewServer; the knobs the facade does not re-export
// (chaos, control, the cluster) are named by their internal packages.

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/gpumodel"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
	"repro/internal/serve/control"
	"repro/internal/sim"
)

func TestFacadeQuickstartPath(t *testing.T) {
	ds := Generate(MiniKITTIPreset(), 42)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	sys := MustSystem(SystemSpec{
		Kind: CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: DefaultConfig(),
	}, ds.Classes)
	run := Run(sys, ds)
	ev := Evaluate(ds, run, Hard, 0.8)
	if ev.MAP <= 0.5 || ev.MAP > 1 {
		t.Fatalf("mAP = %v", ev.MAP)
	}
	if math.IsNaN(ev.MeanDelay) || ev.MeanDelay < 0 {
		t.Fatalf("delay = %v", ev.MeanDelay)
	}
	if run.AvgGops() <= 0 || run.AvgGops() > 254.3 {
		t.Fatalf("Gops = %v", run.AvgGops())
	}
}

// TestFacadeServePath exercises the online serving layer through the
// public facade: the result must carry the acceptance quantities
// (latency percentiles, throughput, drop rate) and stay internally
// consistent.
func TestFacadeServePath(t *testing.T) {
	res, err := Serve(ServeConfig{
		Spec: SystemSpec{
			Kind: CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: DefaultConfig(),
		},
		Preset:    MiniKITTIPreset(),
		Seed:      1,
		Streams:   3,
		FPS:       10,
		Duration:  3,
		Executors: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	fl := res.Fleet
	if fl.Served == 0 || fl.Throughput <= 0 {
		t.Fatalf("fleet served nothing: %+v", fl)
	}
	if fl.Served+fl.DroppedQueue+fl.DroppedStale != fl.Arrived {
		t.Fatalf("frame accounting leak: %+v", fl)
	}
	lat := fl.Latency
	if !(lat.P50 > 0 && lat.P50 <= lat.P95 && lat.P95 <= lat.P99 && lat.P99 <= lat.Max) {
		t.Fatalf("latency percentiles not ordered: %+v", lat)
	}
	if len(res.PerStream) != 3 {
		t.Fatalf("per-stream rows = %d, want 3", len(res.PerStream))
	}
}

// TestFacadeServerPath exercises the push-based Server through the
// public facade: frames submitted from caller code, per-frame events
// on a sink, live stats, and a drained result that balances.
func TestFacadeServerPath(t *testing.T) {
	var served int
	srv, err := NewServer(ServeConfig{
		Spec: SystemSpec{
			Kind: CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: DefaultConfig(),
		},
		Preset:  MiniKITTIPreset(),
		Seed:    1,
		Streams: 2,
		FPS:     10,
		Sink: ServeSinkFunc(func(e ServeEvent) {
			if e.Kind == ServeEventServed {
				served++
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for k := 0; k < 30; k++ {
		for s := 0; s < 2; s++ {
			if err := srv.Submit(s, k, float64(k)/10); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := srv.Stats(); st.Fleet.Arrived != 60 {
		t.Fatalf("live stats saw %d arrivals, submitted 60", st.Fleet.Arrived)
	}
	res, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.Arrived != 60 || res.Fleet.Served != served {
		t.Fatalf("books do not balance: fleet %+v vs %d served events", res.Fleet, served)
	}
}

// TestFacadeChaosPath exercises the facade's scenario-pack registry and
// Serve under the chaos/reconnect/poison knobs of internal/serve: a
// pack resolved by name runs under every fault channel, the relaxed
// policies absorb the faults, and the books still balance with pills
// counted outside the partition.
func TestFacadeChaosPath(t *testing.T) {
	preset, err := PresetByName("night")
	if err != nil {
		t.Fatal(err)
	}
	if len(PresetNames()) < 6 {
		t.Fatalf("preset registry lists only %v", PresetNames())
	}
	res, err := Serve(ServeConfig{
		Spec: SystemSpec{
			Kind: CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: DefaultConfig(),
		},
		Preset:    preset,
		Seed:      7,
		Streams:   3,
		FPS:       10,
		Duration:  3,
		Executors: 1,
		Reconnect: serve.ReconnectResume,
		Poison:    serve.PoisonDrop,
		Chaos: serve.Chaos{
			DropoutRate: 30, DropoutMeanLen: 0.6, Renumber: true,
			FPSJitter: 0.15, ClockSkew: 0.08, PoisonRate: 0.05,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fl := res.Fleet
	if fl.Served == 0 {
		t.Fatalf("chaotic fleet served nothing: %+v", fl)
	}
	if fl.Reconnects == 0 || fl.DroppedPoison == 0 {
		t.Fatalf("chaos channels did not fire: %d reconnects, %d pills", fl.Reconnects, fl.DroppedPoison)
	}
	if fl.Served+fl.DroppedQueue+fl.DroppedStale != fl.Arrived {
		t.Fatalf("frame accounting leak under chaos: %+v", fl)
	}
}

// TestFacadeClusterPath exercises the sharded cluster layer
// (internal/serve/cluster) over a facade ServeConfig: a two-shard
// mixed-tier cluster with migration and autoscaling on, driven
// closed-loop, must keep balanced books, price its capacity, and
// stream attributed events to the sink.
func TestFacadeClusterPath(t *testing.T) {
	var serves, migrations, resizes int
	res, err := cluster.Run(cluster.Config{
		Base: ServeConfig{
			Spec: SystemSpec{
				Kind: CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: DefaultConfig(),
			},
			Preset:    MiniKITTIPreset(),
			Seed:      1,
			Streams:   6,
			FPS:       15,
			StreamFPS: []float64{90, 15, 15, 15, 15, 15},
			Duration:  4,
			QueueCap:  256,
		},
		Shards:    2,
		GPUTiers:  []string{"v100", "k80"},
		Migration: cluster.Migration{QueueDepth: 4},
		Autoscale: cluster.Autoscale{Enabled: true, Min: 1, Max: 3},
		Sink: cluster.SinkFunc(func(e cluster.Event) {
			switch e.Kind {
			case cluster.EventServe:
				if e.Serve.Kind == ServeEventServed {
					serves++
				}
			case cluster.EventMigrate:
				migrations++
			case cluster.EventResize:
				resizes++
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	fl := res.Fleet
	if fl.Served == 0 || fl.Served != serves {
		t.Fatalf("fleet served %d, sink saw %d", fl.Served, serves)
	}
	if fl.Served+fl.DroppedQueue+fl.DroppedStale != fl.Arrived {
		t.Fatalf("frame accounting leak: %+v", fl)
	}
	if res.Migrations != migrations || res.Resizes != resizes {
		t.Fatalf("control books (%d migrations, %d resizes) disagree with sink (%d, %d)",
			res.Migrations, res.Resizes, migrations, resizes)
	}
	if len(res.PerShard) != 2 || res.Cost <= 0 || res.ServedPerDollar <= 0 {
		t.Fatalf("shard economics missing: %d shards, cost %v, served/$ %v",
			len(res.PerShard), res.Cost, res.ServedPerDollar)
	}
	var shardCost float64
	for _, b := range res.PerShard {
		if _, err := gpumodel.TierByName(b.Tier); err != nil {
			t.Errorf("shard %d priced on unknown tier: %v", b.Shard, err)
		}
		shardCost += b.Cost
	}
	if math.Abs(shardCost-res.Cost) > 1e-9 {
		t.Fatalf("shard costs sum to %v, cluster cost %v", shardCost, res.Cost)
	}
	if len(gpumodel.TierNames()) < 3 {
		t.Fatalf("tier catalog too small: %v", gpumodel.TierNames())
	}
}

func TestFacadeErrorsOnUnknownModel(t *testing.T) {
	if _, err := NewSystem(SystemSpec{Kind: Single, Refinement: "alexnet"}, nil); err == nil {
		t.Fatal("expected error")
	}
	if _, err := NewDetector("alexnet"); err == nil {
		t.Fatal("expected error")
	}
}

func TestFacadeModelNames(t *testing.T) {
	names := ModelNames()
	if len(names) < 7 {
		t.Fatalf("model zoo too small: %v", names)
	}
	for _, n := range names {
		if _, err := NewDetector(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}

// Oracle invariant: a single-model system with a perfect detector
// scores mAP 1.0 and zero delay on any world.
func TestOracleSingleModelIsPerfect(t *testing.T) {
	ds := Generate(MiniKITTIPreset(), 7)
	oracle := detector.NewOracle(detector.FreeCost{})
	oracle.Classes = ds.Classes
	sys := core.NewSingleModel(oracle)
	run := sim.Run(sys, ds)
	ev := sim.Evaluate(ds, run, dataset.Hard, 0.8)
	if math.Abs(ev.MAP-1) > 1e-6 {
		t.Fatalf("oracle mAP = %v, want 1", ev.MAP)
	}
	if ev.MeanDelay > 1e-9 {
		t.Fatalf("oracle delay = %v, want 0", ev.MeanDelay)
	}
}

// Oracle cascade invariant: an oracle proposal net plus an oracle
// refinement net must also be perfect — the cascade plumbing (masks,
// margins, thresholds) must not lose anything.
func TestOracleCascadeIsPerfect(t *testing.T) {
	ds := Generate(MiniKITTIPreset(), 7)
	newOracle := func() *detector.Detector {
		o := detector.NewOracle(detector.FreeCost{})
		o.Classes = ds.Classes
		return o
	}
	for _, kind := range []SystemKind{Cascaded, CaTDet} {
		var sys System
		if kind == Cascaded {
			sys = core.NewCascaded(newOracle(), newOracle(), DefaultConfig())
		} else {
			sys = core.NewCaTDet(newOracle(), newOracle(), DefaultConfig())
		}
		run := sim.Run(sys, ds)
		ev := sim.Evaluate(ds, run, dataset.Hard, 0.8)
		if math.Abs(ev.MAP-1) > 1e-6 {
			t.Fatalf("%s oracle mAP = %v, want 1", kind, ev.MAP)
		}
		if ev.MeanDelay > 1e-9 {
			t.Fatalf("%s oracle delay = %v, want 0", kind, ev.MeanDelay)
		}
	}
}

func TestFacadeDatasetRoundTrip(t *testing.T) {
	ds := Generate(MiniKITTIPreset(), 3)
	path := t.TempDir() + "/d.json.gz"
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumObjects() != ds.NumObjects() || got.NumFrames() != ds.NumFrames() {
		t.Fatal("round trip mismatch")
	}
	// Running a system on the loaded dataset must give identical
	// results (determinism keys on sequence IDs and frame indexes).
	spec := SystemSpec{Kind: CaTDet, Proposal: "resnet10b", Refinement: "resnet50", Cfg: DefaultConfig()}
	a := Run(MustSystem(spec, ds.Classes), ds)
	b := Run(MustSystem(spec, got.Classes), got)
	if a.AvgGops() != b.AvgGops() {
		t.Fatal("loaded dataset produced different results")
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	p := MiniKITTIPreset()
	ds := Generate(p, 1)
	rows := sim.Engine{}.Ablations(ds)
	if len(rows) != 5 {
		t.Fatalf("ablation rows = %d", len(rows))
	}
	base := rows[0]
	for _, r := range rows {
		if r.MAPHard <= 0.4 || r.MAPHard > 1 {
			t.Errorf("%s: implausible mAP %v", r.Variant, r.MAPHard)
		}
	}
	// Removing the prediction filters must not reduce cost.
	if rows[3].Gops < base.Gops-0.5 {
		t.Errorf("no-filter variant cheaper (%v) than baseline (%v)", rows[3].Gops, base.Gops)
	}
}

// TestFacadeAdaptivePath exercises the adaptive control plane
// (internal/serve/control) through the facade's Serve: an overloaded
// fleet under the baseline controller sheds streams to cheaper modes,
// the result echoes the controller's activity, and the mode constants
// carry the documented quality ordering.
func TestFacadeAdaptivePath(t *testing.T) {
	res, err := Serve(ServeConfig{
		Spec: SystemSpec{
			Kind: CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: DefaultConfig(),
		},
		Preset:    MiniKITTIPreset(),
		Seed:      1,
		Streams:   6,
		FPS:       30,
		Duration:  3,
		Executors: 1,
		QueueCap:  48,
		Control: control.Config{
			Kind:     control.KindBaseline,
			Interval: 0.1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Control == nil || res.Control.Kind != control.KindBaseline {
		t.Fatalf("result did not echo the controller: %+v", res.Control)
	}
	if res.ControlTicks == 0 {
		t.Error("no control ticks recorded")
	}
	if res.ModeSwitches == 0 || res.Fleet.Degraded == 0 {
		t.Errorf("overloaded adaptive fleet never shed: %d switches, %d degraded",
			res.ModeSwitches, res.Fleet.Degraded)
	}
	if !(control.ModeFull.Quality() > control.ModeCascade.Quality() && control.ModeCascade.Quality() > control.ModeProposal.Quality()) {
		t.Error("mode quality weights not ordered full > cascade > proposal")
	}
	if control.ModeAuto.Quality() != control.ModeCascade.Quality() {
		t.Error("ModeAuto frames must carry the cascade quality weight")
	}
}

// TestFacadeFailoverPath drives the cluster's failure-injection surface
// over a facade ServeConfig: a scheduled kill and revival with the
// replay failover, fault events on the sink, and the availability
// ledger on the result.
func TestFacadeFailoverPath(t *testing.T) {
	var kills, revivals, rebalances int
	res, err := cluster.Run(cluster.Config{
		Base: ServeConfig{
			Spec: SystemSpec{
				Kind: CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: DefaultConfig(),
			},
			Preset:   MiniKITTIPreset(),
			Seed:     1,
			Streams:  6,
			FPS:      15,
			Duration: 4,
			QueueCap: 64,
		},
		Shards:   2,
		GPUTiers: []string{"titanx", "v100"},
		Faults: cluster.FaultPlan{
			Faults: []cluster.Fault{
				{Time: 1, Kind: cluster.FaultKill, Shard: 0},
				{Time: 2.5, Kind: cluster.FaultRevive, Shard: 0},
			},
			Failover: cluster.FailoverReplay,
		},
		Sink: cluster.SinkFunc(func(e cluster.Event) {
			switch e.Kind {
			case cluster.EventKill:
				kills++
			case cluster.EventRevive:
				revivals++
			case cluster.EventRebalance:
				rebalances++
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil {
		t.Fatal("faulted run has no fault ledger")
	}
	if res.Faults.Kills != kills || kills != 1 {
		t.Fatalf("ledger books %d kills, sink saw %d, want 1", res.Faults.Kills, kills)
	}
	if res.Faults.Revivals != revivals || revivals != 1 {
		t.Fatalf("ledger books %d revivals, sink saw %d, want 1", res.Faults.Revivals, revivals)
	}
	if res.Faults.Replaced+res.Faults.Rebalanced != rebalances {
		t.Fatalf("ledger books %d+%d ownership moves, sink saw %d",
			res.Faults.Replaced, res.Faults.Rebalanced, rebalances)
	}
	if res.Faults.Availability <= 0 || res.Faults.Availability >= 1 {
		t.Fatalf("availability %v outside (0,1) for a cluster with downtime", res.Faults.Availability)
	}
	fl := res.Fleet
	if fl.Served+fl.DroppedQueue+fl.DroppedStale+fl.DroppedFailover != fl.Arrived {
		t.Fatalf("frame accounting leak under failover: %+v", fl)
	}
	if sb := res.PerShard[0].Fault; sb == nil || sb.Kills != 1 {
		t.Fatalf("killed shard's fault book missing or wrong: %+v", sb)
	}
}
