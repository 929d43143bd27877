package control

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// view builds a one-knob fleet view: n cascade streams all showing the
// same backlog and window p99.
func view(n, queue int, p99 float64) View {
	v := View{
		QueueDepth: n * queue,
		Batch:      1,
		BaseBatch:  1,
		Cascade:    true,
		Streams:    make([]StreamSignal, n),
	}
	for s := range v.Streams {
		v.Streams[s] = StreamSignal{Stream: s, Queue: queue, P99: p99}
	}
	return v
}

func mustBaseline(t *testing.T, cfg Config) *Baseline {
	t.Helper()
	cfg.Kind = KindBaseline
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return New(cfg)
}

func TestWithDefaultsZeroStaysZero(t *testing.T) {
	var zero Config
	if got := zero.WithDefaults(); got != zero {
		t.Errorf("zero Config gained defaults: %+v", got)
	}
	if zero.Active() {
		t.Error("zero Config must select no controller")
	}
}

func TestWithDefaultsFillsBaseline(t *testing.T) {
	cfg := Config{Kind: KindBaseline}.WithDefaults()
	if cfg.Interval != DefaultInterval {
		t.Errorf("Interval = %v, want %v", cfg.Interval, DefaultInterval)
	}
	if cfg.Cooldown != 2*DefaultInterval {
		t.Errorf("Cooldown = %v, want %v", cfg.Cooldown, 2*DefaultInterval)
	}
	if cfg.HighDepth != DefaultHighDepth || cfg.LowDepth != DefaultLowDepth {
		t.Errorf("depth band = [%d,%d], want [%d,%d]", cfg.LowDepth, cfg.HighDepth, DefaultLowDepth, DefaultHighDepth)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("defaulted baseline config invalid: %v", err)
	}
}

// TestValidateFieldPaths pins the field-path form of every validation
// error: incoherent combos must name the offending field.
func TestValidateFieldPaths(t *testing.T) {
	cases := []struct {
		cfg  Config
		path string
	}{
		{Config{Kind: "pid"}, "Control.Kind"},
		{Config{Interval: 0.5}, "Control.Interval"}, // interval without a controller
		{Config{Kind: KindBaseline}, "Control.Interval"},
		{Config{Kind: KindBaseline, Interval: -1}, "Control.Interval"},
		{Config{Kind: KindBaseline, Interval: 0.25, Cooldown: -1}, "Control.Cooldown"},
		{Config{Kind: KindBaseline, Interval: 0.25, Cooldown: 0.5, HighDepth: -2}, "Control.HighDepth"},
		{Config{Kind: KindBaseline, Interval: 0.25, Cooldown: 0.5, HighDepth: 2, LowDepth: 2,
			HighP99: 0.3, LowP99: 0.1, MaxBatch: 4, TightenScale: 0.6, FullTicks: 2}, "Control.LowDepth"},
		{Config{Kind: KindBaseline, Interval: 0.25, Cooldown: 0.5, HighDepth: 3, LowDepth: 1,
			HighP99: 0.1, LowP99: 0.3, MaxBatch: 4, TightenScale: 0.6, FullTicks: 2}, "Control.LowP99"},
		{Config{Kind: KindBaseline, Interval: 0.25, Cooldown: 0.5, HighDepth: 3, LowDepth: 1,
			HighP99: 0.3, LowP99: 0.1, MaxBatch: 4, BatchDepth: -1, FullTicks: 2}, "Control.BatchDepth"},
		{Config{Kind: KindBaseline, Interval: 0.25, Cooldown: 0.5, HighDepth: 3, LowDepth: 1,
			HighP99: 0.3, LowP99: 0.1, MaxBatch: 4, BatchDepth: 6, TightenScale: 1.5, FullTicks: 2}, "Control.TightenScale"},
		// NaN passes every sign and ordering comparison; each float
		// field must still reject it.
		{nanField(func(c *Config) { c.Interval = math.NaN() }), "Control.Interval"},
		{nanField(func(c *Config) { c.Cooldown = math.NaN() }), "Control.Cooldown"},
		{nanField(func(c *Config) { c.HighP99 = math.NaN() }), "Control.HighP99"},
		{nanField(func(c *Config) { c.LowP99 = math.NaN() }), "Control.LowP99"},
		{nanField(func(c *Config) { c.TightenScale = math.NaN() }), "Control.TightenScale"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%+v: want error at %s, got nil", tc.cfg, tc.path)
			continue
		}
		if !strings.Contains(err.Error(), tc.path+":") {
			t.Errorf("%+v: error %q does not name %s", tc.cfg, err, tc.path)
		}
	}
}

// nanField returns a fully specified valid baseline config with one
// field overwritten by set.
func nanField(set func(*Config)) Config {
	c := Config{Kind: KindBaseline, Interval: 0.25, Cooldown: 0.5, HighDepth: 3, LowDepth: 1,
		HighP99: 0.3, LowP99: 0.1, MaxBatch: 4, BatchDepth: 6, TightenScale: 0.6, FullTicks: 2}
	set(&c)
	return c
}

func TestQualityWeights(t *testing.T) {
	if ModeFull.Quality() != 1.0 || ModeProposal.Quality() != 0.60 {
		t.Errorf("anchor weights moved: full=%v proposal=%v", ModeFull.Quality(), ModeProposal.Quality())
	}
	if ModeCascade.Quality() != ModeAuto.Quality() {
		t.Error("auto and cascade must share a quality weight (auto frames are cascade frames)")
	}
	if !(ModeFull.Quality() > ModeCascade.Quality() && ModeCascade.Quality() > ModeProposal.Quality()) {
		t.Error("quality weights are not ordered full > cascade > proposal")
	}
}

// TestBaselineStepsDownWhenHot walks the mode ladder under sustained
// overload: a deep backlog sheds cascade -> proposal and demotes full
// -> cascade, while a tail-only signal (high window p99 with an empty
// queue) may revoke a ModeFull promotion but never sheds a stream
// below its baseline tier.
func TestBaselineStepsDownWhenHot(t *testing.T) {
	c := mustBaseline(t, Config{Interval: 0.25, Cooldown: 0.25})
	acts := c.Tick(0.25, view(1, 10, 1.0))
	if len(acts) == 0 || acts[0].Policy.Mode != ModeProposal {
		t.Fatalf("deep-backlog cascade stream: got %v, want step down to proposal", acts)
	}
	// A stream already at proposal has nowhere further to go.
	v := view(1, 10, 1.0)
	v.Streams[0].Mode = ModeProposal
	if acts := c.Tick(10, v); len(acts) != 0 {
		t.Errorf("hot proposal stream stepped again: %v", acts)
	}
	v.Streams[0].Mode = ModeFull
	acts = c.Tick(20, v)
	if len(acts) == 0 || acts[0].Policy.Mode != ModeCascade {
		t.Errorf("hot full stream: got %v, want step down to cascade", acts)
	}
	// Tail-only pressure: p99 over HighP99 but no backlog. A full
	// stream is demoted (its own expensive frames are the likely
	// cause) — a cascade stream holds its tier.
	tail := view(1, 0, 10.0)
	tail.Streams[0].P50 = 10.0 // not calm either
	tail.Streams[0].Mode = ModeFull
	acts = c.Tick(30, tail)
	if len(acts) == 0 || acts[0].Policy.Mode != ModeCascade {
		t.Errorf("tail-hot full stream: got %v, want demotion to cascade", acts)
	}
	tail.Streams[0].Mode = ModeCascade
	if acts := c.Tick(40, tail); len(acts) != 0 {
		t.Errorf("tail-hot cascade stream shed below baseline: %v", acts)
	}
}

// TestBaselineRecoversWhenCalm steps a degraded stream back up once
// both hysteresis signals clear.
func TestBaselineRecoversWhenCalm(t *testing.T) {
	c := mustBaseline(t, Config{Interval: 0.25, Cooldown: 0.25})
	v := view(1, 0, 0.01)
	v.Streams[0].Mode = ModeProposal
	acts := c.Tick(0.25, v)
	if len(acts) == 0 || acts[0].Policy.Mode != ModeCascade {
		t.Fatalf("calm proposal stream: got %v, want recovery to cascade", acts)
	}
	// Between the bands nothing moves in either direction.
	v.Streams[0].Mode = ModeCascade
	v.Streams[0].Queue = 2 // between LowDepth 1 and HighDepth 3
	if acts := c.Tick(10, v); len(acts) != 0 {
		t.Errorf("in-band stream moved: %v", acts)
	}
}

// TestBaselineAntiFlap oscillates one stream between hard overload and
// total calm every tick and requires the cooldown to bound the switch
// count: at most one switch per cooldown window, not one per tick.
func TestBaselineAntiFlap(t *testing.T) {
	const interval, cooldown = 0.25, 1.0
	c := mustBaseline(t, Config{Interval: interval, Cooldown: cooldown})
	switches := 0
	ticks := 64
	for i := 1; i <= ticks; i++ {
		now := float64(i) * interval
		v := view(1, 10, 1.0) // hot
		if i%2 == 0 {
			v = view(1, 0, 0.01) // calm
		}
		for _, a := range c.Tick(now, v) {
			if a.Stream == 0 && a.Policy.Mode != ModeAuto {
				switches++
			}
		}
	}
	elapsed := float64(ticks) * interval
	// One switch per cooldown window at most (jitter only stretches the
	// window), plus the initial switch.
	maxSwitches := int(elapsed/cooldown) + 1
	if switches > maxSwitches {
		t.Errorf("oscillating load produced %d mode switches in %.1fs (cooldown %.2fs allows at most %d)",
			switches, elapsed, cooldown, maxSwitches)
	}
	if switches == 0 {
		t.Error("oscillating load produced no switches at all — hysteresis thresholds dead")
	}
}

// TestBaselineBatchHysteresis drives the fleet queue over the raise
// threshold and back under the restore threshold.
func TestBaselineBatchHysteresis(t *testing.T) {
	c := mustBaseline(t, Config{Interval: 0.25, Cooldown: 100, MaxBatch: 8})
	deep := view(4, 2, 0) // total queue 8 >= BatchDepth default (2*HighDepth = 6)
	deep.BaseBatch, deep.Batch = 2, 2
	var batch []int
	for _, a := range c.Tick(0.25, deep) {
		if a.Stream == Fleet {
			batch = append(batch, a.Batch)
		}
	}
	if !reflect.DeepEqual(batch, []int{8}) {
		t.Fatalf("deep queue: fleet batch actions %v, want [8]", batch)
	}
	// Same depth again: no repeated emission.
	for _, a := range c.Tick(0.5, deep) {
		if a.Stream == Fleet {
			t.Fatalf("unchanged depth re-emitted batch action %+v", a)
		}
	}
	drained := view(4, 0, 0)
	drained.BaseBatch, drained.Batch = 2, 8
	batch = batch[:0]
	for _, a := range c.Tick(0.75, drained) {
		if a.Stream == Fleet {
			batch = append(batch, a.Batch)
		}
	}
	if !reflect.DeepEqual(batch, []int{2}) {
		t.Errorf("drained queue: fleet batch actions %v, want restore to [2]", batch)
	}
}

// TestBaselineDeadlineTightening: under EDF with half the fleet hot,
// priority streams get their budget tightened; calm relaxes it back.
func TestBaselineDeadlineTightening(t *testing.T) {
	c := mustBaseline(t, Config{Interval: 0.25, Cooldown: 100, TightenScale: 0.6})
	hot := view(4, 10, 1.0)
	hot.EDF, hot.MaxStaleness = true, 0.3
	hot.Streams[1].Class = 1
	hot.Streams[3].Class = 2
	var scales []float64
	for _, a := range c.Tick(0.25, hot) {
		if a.Policy.DeadlineScale != 0 {
			scales = append(scales, a.Policy.DeadlineScale)
			if a.Stream != 1 && a.Stream != 3 {
				t.Errorf("deadline action for class-0 stream %d", a.Stream)
			}
		}
	}
	if !reflect.DeepEqual(scales, []float64{0.6, 0.6}) {
		t.Fatalf("hot fleet deadline scales %v, want [0.6 0.6]", scales)
	}
	calm := view(4, 0, 0.01)
	calm.EDF, calm.MaxStaleness = true, 0.3
	calm.Streams[1].Class = 1
	calm.Streams[3].Class = 2
	scales = scales[:0]
	for _, a := range c.Tick(0.5, calm) {
		if a.Policy.DeadlineScale != 0 {
			scales = append(scales, a.Policy.DeadlineScale)
		}
	}
	if !reflect.DeepEqual(scales, []float64{1, 1}) {
		t.Errorf("calm fleet deadline scales %v, want relax to [1 1]", scales)
	}
}

// TestBaselineUpgradeFull: with the promotion enabled, a persistently
// calm cascade stream reaches ModeFull after FullTicks calm ticks.
func TestBaselineUpgradeFull(t *testing.T) {
	c := mustBaseline(t, Config{Interval: 0.25, Cooldown: 0.25, UpgradeFull: true, FullTicks: 3})
	var got Mode
	for i := 1; i <= 10; i++ {
		for _, a := range c.Tick(float64(i)*0.25, view(1, 0, 0.01)) {
			got = a.Policy.Mode
		}
		if got == ModeFull {
			break
		}
	}
	if got != ModeFull {
		t.Errorf("persistently calm stream never promoted to full (last action mode %q)", got)
	}
}

// TestBaselineDeterministicReplay: two independent instances fed the
// same tick sequence emit identical action streams — the controller
// keys only on virtual time, config and views.
func TestBaselineDeterministicReplay(t *testing.T) {
	run := func() [][]Action {
		c := mustBaseline(t, Config{Interval: 0.25, Seed: 7, TightenScale: 0.6, UpgradeFull: true})
		var all [][]Action
		for i := 1; i <= 40; i++ {
			queue := 0
			p99 := 0.01
			if i%5 < 3 {
				queue, p99 = 6, 0.8
			}
			v := view(3, queue, p99)
			v.EDF, v.MaxStaleness = true, 0.3
			v.Streams[2].Class = 1
			all = append(all, append([]Action(nil), c.Tick(float64(i)*0.25, v)...))
		}
		return all
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Error("identical tick sequences produced different action streams")
	}
}

// TestBaselineSkipsPinnedStreams: a stream whose mode the serving layer
// pinned (degrade failover) is off-limits to the per-stream policy —
// the controller neither sheds nor recovers it — while its backlog
// still counts toward the fleet pressure driving unpinned peers.
func TestBaselineSkipsPinnedStreams(t *testing.T) {
	c := mustBaseline(t, Config{Interval: 0.25, Cooldown: 0.25})
	v := view(2, 10, 1.0)
	v.Streams[0].Pinned = true
	acts := c.Tick(0.25, v)
	var touchedUnpinned bool
	for _, a := range acts {
		if a.Stream == 0 {
			t.Fatalf("controller acted on the pinned stream: %+v", a)
		}
		if a.Stream == 1 {
			touchedUnpinned = true
		}
	}
	if !touchedUnpinned {
		t.Error("hot unpinned stream saw no action alongside a pinned peer")
	}
}

// TestSharedJitterMatchesSeededDraw pins the shared unit jitter draws to
// the per-controller seeded draws they replace: every (Seed, stream)
// unit is bit-identical to the first Float64 of its own source, however
// the shared table grew — in uneven steps, from several goroutines at
// once — and a baseline's per-stream jitter is that unit times half the
// cooldown, an infinite cooldown included.
func TestSharedJitterMatchesSeededDraw(t *testing.T) {
	draw := func(seed int64, s int) float64 {
		return rand.New(rand.NewSource(seed*2_147_483_647 + int64(s)*92_821 + 13)).Float64()
	}
	seeds := []int64{0, 1, 7, -3, 1 << 40}
	sizes := []int{3, 64, 17, 130}
	var wg sync.WaitGroup
	for _, seed := range seeds {
		for _, n := range sizes {
			wg.Add(1)
			go func(seed int64, n int) {
				defer wg.Done()
				unitJitter(seed, n)
			}(seed, n)
		}
	}
	wg.Wait()
	for _, seed := range seeds {
		for _, n := range sizes {
			u := unitJitter(seed, n)
			if len(u) != n {
				t.Fatalf("seed %d: %d unit draws, want %d", seed, len(u), n)
			}
			for s, got := range u {
				if want := draw(seed, s); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d stream %d: shared unit %v, seeded draw %v", seed, s, got, want)
				}
			}
		}
	}
	for _, cooldown := range []float64{0.1, 2.5, math.Inf(1)} {
		b := New(Config{Seed: 11, Cooldown: cooldown})
		b.ensure(5)
		b.ensure(40)
		if len(b.jitter) != 40 {
			t.Fatalf("cooldown %v: %d jitters, want 40", cooldown, len(b.jitter))
		}
		for s, got := range b.jitter {
			if want := draw(11, s) * 0.5 * cooldown; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cooldown %v stream %d: jitter %v, want %v", cooldown, s, got, want)
			}
		}
	}
}
