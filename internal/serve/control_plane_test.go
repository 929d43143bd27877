package serve

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/serve/control"
	"repro/internal/serve/sched"
	"repro/internal/sim"
	"repro/internal/video"
)

// adaptiveConfig is an overloaded scenario with the baseline controller
// live: enough pressure that the controller actually sheds and
// recovers, so the determinism matrix exercises mode switches, batch
// resizes and tick rearming rather than a quiescent control loop.
func adaptiveConfig() Config {
	cfg := testConfig()
	cfg.Streams = 6
	cfg.FPS = 30
	cfg.QueueCap = 8
	cfg.StatsWindow = 8
	cfg.Control = control.Config{
		Kind:     control.KindBaseline,
		Interval: 0.1, Cooldown: 0.1,
		HighDepth: 2, LowDepth: 1,
		HighP99: 2.5, LowP99: 1.6,
		MaxBatch: 4, BatchDepth: 8,
	}
	return cfg
}

// TestAdaptiveDeterminism is the control plane's determinism contract:
// with the baseline controller live the books are byte-identical
// across reruns and across the execution knobs (StepWorkers, and the
// executor axis at each point), exactly like the controller-less
// matrix in TestDeterminism.
func TestAdaptiveDeterminism(t *testing.T) {
	for _, executors := range []int{1, 2} {
		t.Run(fmt.Sprintf("executors=%d", executors), func(t *testing.T) {
			var golden []byte
			for _, workers := range []int{1, 4, 1} { // trailing 1 = rerun
				cfg := adaptiveConfig()
				cfg.Executors = executors
				cfg.StepWorkers = workers
				b := marshal(t, mustRun(t, cfg))
				if golden == nil {
					golden = b
				} else if !bytes.Equal(golden, b) {
					t.Fatalf("adaptive books diverge at StepWorkers=%d", workers)
				}
			}
		})
	}
}

// TestAdaptiveResultEcho asserts an actively controlled run reports its
// control plane: the config echo, a live tick count, and (for this
// deliberately overloaded scenario) at least one mode switch, with
// degraded frames appearing without any DegradeDepth set.
func TestAdaptiveResultEcho(t *testing.T) {
	r := mustRun(t, adaptiveConfig())
	if r.Control == nil {
		t.Fatal("adaptive run did not echo its control config")
	}
	if r.Control.Kind != control.KindBaseline {
		t.Errorf("echoed kind %q, want %q", r.Control.Kind, control.KindBaseline)
	}
	if r.ControlTicks == 0 {
		t.Error("adaptive run recorded no control ticks")
	}
	if r.ModeSwitches == 0 {
		t.Error("overloaded adaptive run recorded no mode switches")
	}
	if r.DegradeDepth != 0 {
		t.Errorf("DegradeDepth echo = %d, want 0 (shedding is the controller's)", r.DegradeDepth)
	}
	if r.Fleet.Degraded == 0 {
		t.Error("overloaded adaptive run shed no frames")
	}
}

// TestPerStreamWindowsBounded pins the memory contract of the
// per-stream latency windows: after serving far more frames than
// StatsWindow, every latency ring and its sorted copy still hold at
// most StatsWindow samples and every summary covers at most
// StatsWindow frames. A controller-less fleet, which has no reader for
// them, keeps no per-stream window at all.
func TestPerStreamWindowsBounded(t *testing.T) {
	cfg := adaptiveConfig()
	cfg.StatsWindow = 4
	cfg.Duration = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, a := range Schedule(s.f.cfg) {
		if err := s.Submit(a.Stream, a.Frame, a.At); err != nil {
			t.Fatal(err)
		}
	}
	r, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Fleet.Served <= cfg.Streams*cfg.StatsWindow {
		t.Fatalf("scenario too small to exercise the rings: served %d", r.Fleet.Served)
	}
	if len(s.f.books.latWinS) != cfg.Streams {
		t.Fatalf("controlled fleet keeps %d latency windows, want %d", len(s.f.books.latWinS), cfg.Streams)
	}
	for i, w := range s.f.books.latWinS {
		if len(w.buf) > cfg.StatsWindow || cap(w.buf) != cfg.StatsWindow {
			t.Errorf("stream %d latency ring holds %d/%d samples, want cap %d",
				i, len(w.buf), cap(w.buf), cfg.StatsWindow)
		}
		if len(w.sorted) != len(w.buf) || cap(w.sorted) > cfg.StatsWindow {
			t.Errorf("stream %d sorted copy holds %d/%d samples for %d in the ring, want cap %d",
				i, len(w.sorted), cap(w.sorted), len(w.buf), cfg.StatsWindow)
		}
		if n := w.summary().Count; n > cfg.StatsWindow {
			t.Errorf("stream %d window count %d > StatsWindow %d", i, n, cfg.StatsWindow)
		}
	}

	cfg.Control = control.Config{}
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.f.books.latWinS != nil {
		t.Errorf("controller-less fleet keeps %d per-stream latency windows, want none", len(plain.f.books.latWinS))
	}
}

// TestBuildViewAllocFree pins the control tick's observation: once the
// fleet is warm, assembling the View allocates nothing, whether each
// stream's latency summary is recomputed after an add or read from its
// memo.
func TestBuildViewAllocFree(t *testing.T) {
	s, err := New(adaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, a := range Schedule(s.f.cfg) {
		if err := s.Submit(a.Stream, a.Frame, a.At); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { s.f.buildView() }); a != 0 {
		t.Errorf("memoized buildView allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		for _, w := range s.f.books.latWinS {
			w.add(0.5)
		}
		s.f.buildView()
	}); a != 0 {
		t.Errorf("buildView after adds allocates %v times, want 0", a)
	}
}

// paretoPack is one frozen scenario of the adaptive-domination
// headline: a base config plus the adaptive variants claimed to cover
// its static grid.
type paretoPack struct {
	name     string
	base     func() Config
	adaptive []adaptiveVariant
}

type adaptiveVariant struct {
	name  string
	batch int
	ctrl  control.Config
}

// crowdBase is the shared chassis of both packs: three crowd-preset
// streams against one executor, a deep queue, and a short stats window
// so the control signals track the current burst, not ancient history.
func crowdBase() Config {
	p, err := video.PresetByName("crowd")
	if err != nil {
		panic(err)
	}
	return Config{
		Spec: sim.SystemSpec{
			Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50",
			Cfg: core.DefaultConfig(),
		},
		Preset:      p,
		Seed:        1,
		Streams:     3,
		Duration:    6,
		Executors:   1,
		QueueCap:    16,
		StatsWindow: 8,
	}
}

// paretoPacks are the two scenario packs the headline sweep pins: the
// crowd preset's expensive refinement pass makes sustained overload
// collapse every static config onto a frontier the queue-keyed
// controller dominates — shedding into bursts, recovering in dips.
func paretoPacks() []paretoPack {
	shed := control.Config{
		Kind:     control.KindBaseline,
		Interval: 0.1, Cooldown: 0.1,
		HighDepth: 2, LowDepth: 1,
		HighP99: 2.5, LowP99: 1.6,
		MaxBatch: 4, BatchDepth: 8,
	}
	shed3 := shed
	shed3.HighDepth = 3
	fast := shed
	fast.Interval = 0.05
	fast.MaxBatch = 1
	return []paretoPack{
		{
			name: "crowd-poisson",
			base: func() Config {
				cfg := crowdBase()
				cfg.FPS = 4
				cfg.Arrivals = Poisson
				return cfg
			},
			adaptive: []adaptiveVariant{
				{"shed-hd2", 4, shed},
				{"shed-hd3", 4, shed3},
			},
		},
		{
			name: "crowd-burst",
			base: func() Config {
				cfg := crowdBase()
				cfg.Seed = 2
				cfg.FPS = 9
				cfg.Arrivals = Burst
				cfg.BurstPeriod = 2.4
				cfg.BurstDuty = 0.4
				return cfg
			},
			adaptive: []adaptiveVariant{
				{"shed-fast", 1, fast},
			},
		},
	}
}

// TestAdaptiveParetoDominatesStatics is the headline claim, frozen: in
// both scenario packs, every static scheduler x batch x degrade config
// is strictly Pareto-dominated on (quality-weighted served, window
// p99) by at least one adaptive run — no static point survives on the
// frontier. The same grid backs cmd/serve -sweep.
func TestAdaptiveParetoDominatesStatics(t *testing.T) {
	if testing.Short() {
		t.Skip("pareto grid is ~40 serve runs")
	}
	for _, pack := range paretoPacks() {
		t.Run(pack.name, func(t *testing.T) {
			type point struct {
				label  string
				q, p99 float64
			}
			var adapts []point
			for _, v := range pack.adaptive {
				cfg := pack.base()
				cfg.Scheduler = sched.FIFO
				cfg.BatchSize = v.batch
				cfg.Control = v.ctrl
				r := mustRun(t, cfg)
				adapts = append(adapts, point{v.name, r.Fleet.QualityServed(), r.Fleet.Latency.P99})
			}
			for _, kind := range []sched.Kind{sched.FIFO, sched.Fair, sched.Priority, sched.EDF} {
				for _, batch := range []int{1, 4} {
					for _, degrade := range []int{0, 4} {
						cfg := pack.base()
						cfg.Scheduler = kind
						if kind == sched.Priority {
							cfg.Priorities = []int{1, 0, 1}
						}
						cfg.BatchSize = batch
						cfg.DegradeDepth = degrade
						r := mustRun(t, cfg)
						s := point{
							fmt.Sprintf("%s/b%d/d%d", kind, batch, degrade),
							r.Fleet.QualityServed(), r.Fleet.Latency.P99,
						}
						dominated := false
						for _, a := range adapts {
							if a.q >= s.q && a.p99 <= s.p99 && (a.q > s.q || a.p99 < s.p99) {
								dominated = true
								break
							}
						}
						if !dominated {
							t.Errorf("static %s (q=%.2f p99=%.3f) undominated by adaptive set %v",
								s.label, s.q, s.p99, adapts)
						}
					}
				}
			}
		})
	}
}
