package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/serve/control"
	"repro/internal/video"
)

// traceCase is one run the trace-equals-books test records: a config,
// how to drive a Server built from it to its Result, and the golden
// file that Result must reproduce ("" for none).
type traceCase struct {
	name, golden string
	cfg          Config
	drive        func(t *testing.T, srv *Server) *Result
}

// traceCases are every serve golden, a run whose server dies
// mid-overload and is revived, and a controller-less run with one
// stream pinned to full-frame refinement.
func traceCases(t *testing.T) []traceCase {
	var cases []traceCase
	for _, g := range goldenScenarios() {
		cases = append(cases, traceCase{g.name, g.file, g.cfg, ingestDrain})
	}
	for _, name := range presetPacks {
		p, err := video.PresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, traceCase{name, fmt.Sprintf("golden_%s.json", name), presetGoldenConfig(p), ingestDrain})
	}
	return append(cases,
		traceCase{"fail-at", "", goldenConfig(), failAndRevive},
		traceCase{"pinned-full", "", goldenConfig(), func(t *testing.T, srv *Server) *Result {
			if err := srv.PinMode(0, control.ModeFull); err != nil {
				t.Fatal(err)
			}
			return ingestDrain(t, srv)
		}},
	)
}

// ingestDrain replays the config's schedule and drains.
func ingestDrain(t *testing.T, srv *Server) *Result {
	t.Helper()
	if err := srv.Ingest(ScheduleSource(srv.Config())); err != nil {
		t.Fatal(err)
	}
	r, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// failAndRevive kills the server at t=2 with work queued and in flight,
// revives one executor at t=2.5 and replays the rest of the schedule.
func failAndRevive(t *testing.T, srv *Server) *Result {
	t.Helper()
	src := ScheduleSource(srv.Config())
	a, ok := src.Next()
	for ; ok && a.At <= 2; a, ok = src.Next() {
		if err := srv.Submit(a.Stream, a.Frame, a.At); err != nil {
			t.Fatal(err)
		}
	}
	if seized, err := srv.FailAt(2); err != nil || len(seized) == 0 {
		t.Fatalf("FailAt seized %d frames, err %v", len(seized), err)
	}
	if err := srv.ResizeAt(1, 2.5); err != nil {
		t.Fatal(err)
	}
	for ; ok; a, ok = src.Next() {
		if err := srv.Submit(a.Stream, a.Frame, a.At); err != nil {
			t.Fatal(err)
		}
	}
	r, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// bitsEqual compares two values field by field, every float64 through
// math.Float64bits.
func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

func sameBits(t *testing.T, what string, got, want any) {
	t.Helper()
	if !bitsEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Errorf("%s: folded from the trace %+v, books %+v", what, got, want)
	}
}

// TestTraceEqualsBooks pins the books as the fold of the event stream.
// Each run — every serve golden, a FailAt run and a controller-less
// PinMode(ModeFull) run, at StepWorkers 1, 2 and 8 — records its sink
// events, and replaying them into a fresh fleet's books reproduces
// every PerStream, PerClass and Fleet row, ModeSwitches, the live Stats
// row and the controller's per-stream windows bit for bit, once each
// row's Arrived (the one counter no event carries) is copied over. An
// independent per-kind tally of the same events then pins what the
// fold books, so a fold that drops a case fails here even though the
// engine and the replay would agree on the loss.
func TestTraceEqualsBooks(t *testing.T) {
	for _, tc := range traceCases(t) {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				cfg := tc.cfg
				cfg.StepWorkers = workers
				log := &eventLog{}
				cfg.Sink = log
				srv, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				r := tc.drive(t, srv)
				if tc.golden != "" {
					got, err := json.MarshalIndent(r, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(append(got, '\n'), want) {
						t.Fatalf("run drifted from %s", tc.golden)
					}
				}
				checkReplay(t, cfg, log.events, r, srv)
				checkTally(t, log.events, r, srv)
				if tc.name == "pinned-full" {
					checkPinnedFull(t, log.events, r)
				}
			})
		}
	}
}

// checkReplay folds the events into a fresh fleet's books and compares
// what it derives with the run's Result, Stats and control windows.
func checkReplay(t *testing.T, cfg Config, events []Event, r *Result, srv *Server) {
	t.Helper()
	cfg.Sink = nil
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	b := &fresh.f.books
	for _, e := range events {
		b.book(e)
	}
	for s, row := range r.PerStream {
		b.acc[s].Arrived = row.Arrived
	}
	fresh.f.lastT = r.LastEventAt
	got := fresh.f.result()
	sameBits(t, "per-stream rows", got.PerStream, r.PerStream)
	sameBits(t, "per-class rows", got.PerClass, r.PerClass)
	sameBits(t, "fleet row", got.Fleet, r.Fleet)
	if got.ModeSwitches != r.ModeSwitches {
		t.Errorf("trace folds %d mode switches, books %d", got.ModeSwitches, r.ModeSwitches)
	}
	sameBits(t, "live stats row", fresh.f.stats().Fleet, srv.Stats().Fleet)
	if len(b.latWinS) != len(srv.f.books.latWinS) {
		t.Fatalf("replay keeps %d control windows, run %d", len(b.latWinS), len(srv.f.books.latWinS))
	}
	for s, w := range b.latWinS {
		sameBits(t, fmt.Sprintf("stream %d control window", s), w.summary(), srv.f.books.latWinS[s].summary())
	}
}

// checkTally counts the events by kind, per stream, and checks each
// count against the row counter it must move, the served latencies
// against the samples and windows they feed, and every stream's frames
// against its arrivals.
func checkTally(t *testing.T, events []Event, r *Result, srv *Server) {
	t.Helper()
	tally := make([]StreamStats, len(r.PerStream))
	switches, served := 0, 0
	for _, e := range events {
		row := &tally[e.Stream]
		switch e.Kind {
		case EventServed:
			if math.Float64bits(e.Latency) != math.Float64bits(e.Time-e.Arrive) {
				t.Fatalf("served event latency %v != time-arrive %v", e.Latency, e.Time-e.Arrive)
			}
			served++
			row.Served++
			if e.Degraded {
				row.Degraded++
			}
			if e.full {
				row.ModeFull++
			}
		case EventDroppedQueue:
			row.DroppedQueue++
		case EventDroppedStale:
			row.DroppedStale++
		case EventDroppedPoison:
			row.DroppedPoison++
		case EventReconnect:
			row.Reconnects++
		case EventFailedOver:
			row.FailedOver++
		case EventModeSwitch:
			switches++
		}
		if e.Kind != EventServed && e.Latency != 0 {
			t.Fatalf("%s event carries latency %v", e.Kind, e.Latency)
		}
	}
	for s, got := range r.PerStream {
		want := tally[s]
		want.ID, want.Arrived = got.ID, got.Arrived
		want.Throughput, want.DropRate, want.Latency = got.Throughput, got.DropRate, got.Latency
		if got != want {
			t.Errorf("%s books %+v, its events tally %+v", got.ID, got, want)
		}
		if got.Latency.Count != got.Served {
			t.Errorf("%s books %d latency samples for %d served frames", got.ID, got.Latency.Count, got.Served)
		}
		if n := got.Served + got.DroppedQueue + got.DroppedStale + got.FailedOver; n != got.Arrived {
			t.Errorf("%s: %d frames reached an outcome, %d arrived", got.ID, n, got.Arrived)
		}
		if w := srv.f.books.latWinS; w != nil && w[s].n != got.Served {
			t.Errorf("%s control window saw %d samples, %d served", got.ID, w[s].n, got.Served)
		}
	}
	if switches != r.ModeSwitches {
		t.Errorf("%d mode-switch events, books %d", switches, r.ModeSwitches)
	}
	if want := min(srv.Config().StatsWindow, served); srv.Stats().Fleet.Latency.Count != want {
		t.Errorf("stats window holds %d samples, want %d", srv.Stats().Fleet.Latency.Count, want)
	}
}

// checkPinnedFull pins the controller-less ModeFull books: the pinned
// stream serves every frame in full-frame refinement and books each,
// though no event's trace bytes carry a mode.
func checkPinnedFull(t *testing.T, events []Event, r *Result) {
	t.Helper()
	if row := r.PerStream[0]; row.ModeFull == 0 || row.ModeFull != row.Served {
		t.Errorf("pinned stream books %d full-mode frames of %d served", row.ModeFull, row.Served)
	}
	for _, row := range r.PerStream[1:] {
		if row.ModeFull != 0 {
			t.Errorf("unpinned stream %s books %d full-mode frames", row.ID, row.ModeFull)
		}
	}
	for _, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, []byte(`"mode"`)) {
			t.Fatalf("controller-less trace carries a mode: %s", b)
		}
	}
}
