package serve

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/video"
)

// eventLog is a test sink recording every event in emission order.
type eventLog struct{ events []Event }

func (l *eventLog) ServeEvent(e Event) { l.events = append(l.events, e) }

func (l *eventLog) byKind(kind EventKind) []Event {
	var out []Event
	for _, e := range l.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// submitAll submits (frame, at) pairs to one stream, failing the test
// on any error.
func submitAll(t *testing.T, srv *Server, stream int, frames []int, times []float64) {
	t.Helper()
	for i, fr := range frames {
		if err := srv.Submit(stream, fr, times[i]); err != nil {
			t.Fatalf("Submit(%d, %d, %v): %v", stream, fr, times[i], err)
		}
	}
}

// TestReconnectResume pins the resume-with-gap semantics: a camera that
// drops out and comes back with restarted wire numbering continues its
// world where the outage interrupted it. Wire frames 0..4 then 0..2
// serve as effective frames 0..7, one reconnect is booked, and the
// session epoch never changes.
func TestReconnectResume(t *testing.T) {
	log := &eventLog{}
	cfg := testConfig()
	cfg.Streams = 1
	cfg.Reconnect = ReconnectResume
	cfg.Sink = log
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	submitAll(t, srv, 0,
		[]int{0, 1, 2, 3, 4, 0, 1, 2},
		[]float64{0.0, 0.1, 0.2, 0.3, 0.4, 1.0, 1.1, 1.2})
	r, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	wantEff := []int{0, 1, 2, 3, 4, 5, 6, 7}
	served := log.byKind(EventServed)
	if len(served) != len(wantEff) {
		t.Fatalf("served %d frames, want %d (events: %+v)", len(served), len(wantEff), log.events)
	}
	for i, e := range served {
		if e.Frame != wantEff[i] || e.Epoch != 0 {
			t.Errorf("served[%d] = frame %d epoch %d, want frame %d epoch 0", i, e.Frame, e.Epoch, wantEff[i])
		}
	}
	recs := log.byKind(EventReconnect)
	if len(recs) != 1 || recs[0].Frame != 5 || recs[0].Epoch != 0 {
		t.Errorf("reconnect events = %+v, want one at effective frame 5, epoch 0", recs)
	}
	if r.Fleet.Reconnects != 1 || r.PerStream[0].Reconnects != 1 {
		t.Errorf("Reconnects fleet=%d stream=%d, want 1/1", r.Fleet.Reconnects, r.PerStream[0].Reconnects)
	}
	if r.ReconnectPolicy != ReconnectResume {
		t.Errorf("Result.ReconnectPolicy = %q, want %q", r.ReconnectPolicy, ReconnectResume)
	}
	if r.Fleet.Arrived != 8 || r.Fleet.Served != 8 {
		t.Errorf("books: arrived %d served %d, want 8/8", r.Fleet.Arrived, r.Fleet.Served)
	}
}

// TestReconnectReset pins the reset-session semantics: the reconnect
// starts a new capture session that replays the wire indices literally
// — effective frames 0..4 in epoch 0, then 0..2 again in epoch 1.
func TestReconnectReset(t *testing.T) {
	log := &eventLog{}
	cfg := testConfig()
	cfg.Streams = 1
	cfg.Reconnect = ReconnectReset
	cfg.Sink = log
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	submitAll(t, srv, 0,
		[]int{0, 1, 2, 3, 4, 0, 1, 2},
		[]float64{0.0, 0.1, 0.2, 0.3, 0.4, 1.0, 1.1, 1.2})
	r, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	want := []struct{ frame, epoch int }{
		{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0},
		{0, 1}, {1, 1}, {2, 1},
	}
	served := log.byKind(EventServed)
	if len(served) != len(want) {
		t.Fatalf("served %d frames, want %d", len(served), len(want))
	}
	for i, e := range served {
		if e.Frame != want[i].frame || e.Epoch != want[i].epoch {
			t.Errorf("served[%d] = frame %d epoch %d, want frame %d epoch %d",
				i, e.Frame, e.Epoch, want[i].frame, want[i].epoch)
		}
	}
	recs := log.byKind(EventReconnect)
	if len(recs) != 1 || recs[0].Frame != 0 || recs[0].Epoch != 1 {
		t.Errorf("reconnect events = %+v, want one at frame 0, epoch 1", recs)
	}
	if r.Fleet.Reconnects != 1 {
		t.Errorf("Fleet.Reconnects = %d, want 1", r.Fleet.Reconnects)
	}
}

// TestReconnectSkewedClock pins the clock-forgiveness rider of the
// non-rejecting policies: a reconnecting camera whose stamps went
// backwards is re-stamped to the stream's last accepted arrival
// instead of failing the feed — and the books stay monotone.
func TestReconnectSkewedClock(t *testing.T) {
	cfg := testConfig()
	cfg.Streams = 1
	cfg.Reconnect = ReconnectResume
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Submit(0, 0, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(0, 1, 0.4); err != nil {
		t.Errorf("backwards stamp rejected under %s: %v", ReconnectResume, err)
	}
	r, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Fleet.Arrived != 2 || r.Fleet.Served != 2 {
		t.Errorf("books: arrived %d served %d, want 2/2", r.Fleet.Arrived, r.Fleet.Served)
	}
	// The rejecting default still enforces the strict contract.
	strict, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	if err := strict.Submit(0, 0, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := strict.Submit(0, 1, 0.4); err == nil {
		t.Error("backwards stamp accepted under the rejecting default")
	}
}

// TestPoisonIsolation pins the PoisonDrop promise: a run with pills —
// every pill class: negative frame, frame past MaxFrame, NaN and Inf
// stamps — produces books identical to the pill-free run except for
// the DroppedPoison counters, and each pill is sunk as its own event
// kind without perturbing clock, session or stats.
func TestPoisonIsolation(t *testing.T) {
	run := func(pills bool) (*Result, *eventLog) {
		log := &eventLog{}
		cfg := testConfig()
		cfg.Streams = 2
		cfg.Poison = PoisonDrop
		cfg.Sink = log
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for k := 0; k < 8; k++ {
			at := 0.1 * float64(k)
			if pills && k == 3 {
				for _, pill := range []struct {
					frame int
					at    float64
				}{
					{-1, at},
					{srv.f.cfg.MaxFrame + 1, at},
					{k, math.NaN()},
					{k, math.Inf(1)},
				} {
					if err := srv.Submit(0, pill.frame, pill.at); err != nil {
						t.Fatalf("pill (%d, %v) not swallowed: %v", pill.frame, pill.at, err)
					}
				}
			}
			for s := 0; s < 2; s++ {
				if err := srv.Submit(s, k, at); err != nil {
					t.Fatal(err)
				}
			}
		}
		r, err := srv.Drain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return r, log
	}

	clean, _ := run(false)
	poisoned, log := run(true)

	if got := poisoned.Fleet.DroppedPoison; got != 4 {
		t.Errorf("Fleet.DroppedPoison = %d, want 4", got)
	}
	if got := poisoned.PerStream[0].DroppedPoison; got != 4 {
		t.Errorf("stream 0 DroppedPoison = %d, want 4", got)
	}
	if got := len(log.byKind(EventDroppedPoison)); got != 4 {
		t.Errorf("sink saw %d dropped-poison events, want 4", got)
	}
	for _, e := range log.byKind(EventDroppedPoison) {
		if math.IsNaN(e.Arrive) || math.IsInf(e.Arrive, 0) {
			t.Errorf("poison event leaked a non-finite arrival stamp: %+v", e)
		}
	}
	// Scrub the poison counters; everything else must match byte for
	// byte — the pills bought nothing and poisoned nothing.
	scrub := func(r *Result) *Result {
		r.Fleet.DroppedPoison = 0
		for i := range r.PerStream {
			r.PerStream[i].DroppedPoison = 0
		}
		return r
	}
	if got, want := marshal(t, scrub(poisoned)), marshal(t, scrub(clean)); !bytes.Equal(got, want) {
		t.Errorf("pills perturbed the books\nwith pills: %s\n   without: %s", got, want)
	}
}

// TestPoisonErrorDefault pins the strict default: every pill class is
// a Submit error when Poison is unset.
func TestPoisonErrorDefault(t *testing.T) {
	srv, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, pill := range []struct {
		frame int
		at    float64
	}{
		{-1, 0}, {DefaultMaxFrame + 1, 0}, {0, math.NaN()}, {0, math.Inf(-1)},
	} {
		if err := srv.Submit(0, pill.frame, pill.at); err == nil {
			t.Errorf("Submit(0, %d, %v) accepted a pill under PoisonError", pill.frame, pill.at)
		}
	}
}

// chaosModes are the fault cocktails the determinism matrix runs: each
// exercises a different subset of the chaos channels and reconnect
// policies.
func chaosModes() map[string]func(*Config) {
	return map[string]func(*Config){
		"jitter-skew": func(c *Config) {
			c.Chaos = Chaos{FPSJitter: 0.3, ClockSkew: 0.1}
		},
		"dropout-resume": func(c *Config) {
			c.Reconnect = ReconnectResume
			c.Chaos = Chaos{DropoutRate: 40, DropoutMeanLen: 0.5, Renumber: true}
		},
		"full-reset": func(c *Config) {
			c.Reconnect = ReconnectReset
			c.Poison = PoisonDrop
			c.Chaos = Chaos{DropoutRate: 30, DropoutMeanLen: 0.4, Renumber: true,
				FPSJitter: 0.2, ClockSkew: 0.08, PoisonRate: 0.05}
		},
	}
}

// TestChaosDeterminism extends the determinism contract to the chaos
// layer: for every scenario pack and fault cocktail, the same config +
// seed produces byte-identical Results across reruns and step-worker
// counts. Chaos perturbs the offered load deterministically; it must
// never introduce scheduling, map-order or wall-clock dependence.
func TestChaosDeterminism(t *testing.T) {
	presets := []string{"crowd", "highway", "drone", "night", "sports"}
	for _, name := range presets {
		p, err := video.PresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for mode, apply := range chaosModes() {
			cfg := testConfig()
			cfg.Preset = p
			cfg.Streams = 3
			cfg.FPS = 8
			cfg.Duration = 3
			cfg.StepWorkers = 1
			apply(&cfg)
			first := marshal(t, mustRun(t, cfg))
			again := marshal(t, mustRun(t, cfg))
			if !bytes.Equal(first, again) {
				t.Errorf("%s/%s: rerun not byte-identical", name, mode)
			}
			cfg.StepWorkers = 4
			par := marshal(t, mustRun(t, cfg))
			if !bytes.Equal(first, par) {
				t.Errorf("%s/%s: StepWorkers=4 not byte-identical to serial", name, mode)
			}
		}
	}
}

// TestChaosPerturbsOnlyOfferedLoad pins the layering: chaos changes
// the schedule, not the engine. A chaotic schedule replayed through a
// clean server books exactly the arrivals the source offered.
func TestChaosPerturbsOnlyOfferedLoad(t *testing.T) {
	cfg := testConfig()
	cfg.Reconnect = ReconnectResume
	cfg.Poison = PoisonDrop
	cfg.Chaos = Chaos{DropoutRate: 30, DropoutMeanLen: 0.5, Renumber: true, PoisonRate: 0.1}
	offered, pills := 0, 0
	for _, a := range Schedule(cfg) {
		if a.Frame < 0 {
			pills++
		} else {
			offered++
		}
	}
	if pills == 0 {
		t.Fatal("chaos with PoisonRate 0.1 injected no pills (rate plumbing broken?)")
	}
	r := mustRun(t, cfg)
	if r.Fleet.Arrived != offered {
		t.Errorf("Arrived = %d, schedule offered %d usable frames", r.Fleet.Arrived, offered)
	}
	if r.Fleet.DroppedPoison != pills {
		t.Errorf("DroppedPoison = %d, schedule carried %d pills", r.Fleet.DroppedPoison, pills)
	}
	cleanN := len(Schedule(testConfig()))
	if offered+pills >= cleanN {
		t.Errorf("dropouts removed nothing: chaotic %d+%d vs clean %d arrivals", offered, pills, cleanN)
	}
}
