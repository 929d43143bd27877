package cluster

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/serve"
	"repro/internal/serve/control"
)

// rowBits flattens a row into comparable words, every float through
// math.Float64bits.
func rowBits(s serve.StreamStats) [19]uint64 {
	l, f := s.Latency, math.Float64bits
	return [19]uint64{
		uint64(s.Arrived), uint64(s.Served), uint64(s.DroppedQueue), uint64(s.DroppedStale),
		uint64(s.DroppedPoison), uint64(s.Reconnects), uint64(s.FailedOver), uint64(s.Replayed),
		uint64(s.DroppedFailover), uint64(s.Degraded), uint64(s.ModeFull),
		f(s.Throughput), f(s.DropRate),
		uint64(l.Count), f(l.Mean), f(l.P50), f(l.P95), f(l.P99), f(l.Max),
	}
}

// TestShardBooksEqualServeEvents pins every shard's Result as the fold
// of the serve events the Router wraps for it: on the cluster golden
// and on a replay-failover kill, each shard's per-stream and fleet
// rows, rebuilt from its EventServe events with StreamStats.Derive over
// the shard's makespan, equal its books bit for bit. Arrived is copied
// from the books: arrivals are not events.
func TestShardBooksEqualServeEvents(t *testing.T) {
	golden := everythingOn()
	golden.Shards = 2
	golden.GPUTiers = []string{"titanx", "v100"}
	for name, cfg := range map[string]Config{
		"golden":          golden,
		"replay-failover": faultCluster(2, FailoverReplay),
	} {
		t.Run(name, func(t *testing.T) {
			var events []Event
			cfg.Sink = SinkFunc(func(e Event) { events = append(events, e) })
			r := mustRun(t, cfg)
			if name == "golden" {
				want, err := os.ReadFile(filepath.Join("testdata", "golden_cluster.json"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(marshal(t, r), want) {
					t.Fatal("run drifted from golden_cluster.json")
				}
			} else if r.Fleet.Replayed == 0 {
				t.Fatal("failover scenario replayed nothing")
			}

			rows := make([][]serve.StreamStats, len(r.PerShard))
			lats := make([][][]float64, len(r.PerShard))
			switches := make([]int, len(r.PerShard))
			for i := range rows {
				rows[i] = make([]serve.StreamStats, r.Streams)
				lats[i] = make([][]float64, r.Streams)
			}
			for _, ce := range events {
				if ce.Kind != EventServe {
					continue
				}
				e := ce.Serve
				row := &rows[ce.Shard][e.Stream]
				switch e.Kind {
				case serve.EventServed:
					row.Served++
					if e.Degraded {
						row.Degraded++
					}
					// Shards pin only proposal-only, so a full-frame
					// frame is served only under a controller, whose
					// events carry the mode.
					if e.Mode == string(control.ModeFull) {
						row.ModeFull++
					}
					lats[ce.Shard][e.Stream] = append(lats[ce.Shard][e.Stream], e.Latency)
				case serve.EventDroppedQueue:
					row.DroppedQueue++
				case serve.EventDroppedStale:
					row.DroppedStale++
				case serve.EventDroppedPoison:
					row.DroppedPoison++
				case serve.EventReconnect:
					row.Reconnects++
				case serve.EventFailedOver:
					row.FailedOver++
				case serve.EventModeSwitch:
					switches[ce.Shard]++
				}
			}

			for i, book := range r.PerShard {
				b := book.Result
				fleet := serve.StreamStats{ID: "fleet"}
				var all []float64
				for s, want := range b.PerStream {
					got := rows[i][s]
					got.ID, got.Arrived = want.ID, want.Arrived
					got.Derive(b.LastEventAt, lats[i][s])
					if rowBits(got) != rowBits(want) {
						t.Errorf("shard %d %s: folded from events %+v, books %+v", i, want.ID, got, want)
					}
					fleet.Add(got)
					all = append(all, lats[i][s]...)
				}
				fleet.Derive(b.LastEventAt, all)
				if rowBits(fleet) != rowBits(b.Fleet) {
					t.Errorf("shard %d fleet: folded from events %+v, books %+v", i, fleet, b.Fleet)
				}
				if switches[i] != b.ModeSwitches {
					t.Errorf("shard %d: %d mode-switch events, books %d", i, switches[i], b.ModeSwitches)
				}
			}
		})
	}
}
