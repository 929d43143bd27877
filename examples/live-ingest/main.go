// Live ingestion: the serving fleet as an open component instead of a
// closed-loop simulator. Three caller-owned goroutines play camera
// feeds — each paces its own jittered ~15 fps cadence and pushes
// frames into a shared channel — and one goroutine ranges over the
// channel and submits each frame to the fleet. While frames stream in,
// the main goroutine polls live stats (throughput, drop rate, queue
// depth, sliding-window p50/p95/p99) and a sink counts per-frame
// outcomes as the engine decides them; Drain then runs the backlog dry
// and reconciles the live books against the final result.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	catdet "repro"
)

const (
	streams   = 3
	fps       = 15.0
	perStream = 150
)

func main() {
	var served, dropped atomic.Int64
	srv, err := catdet.NewServer(catdet.ServeConfig{
		Spec: catdet.SystemSpec{
			Kind: catdet.CaTDet, Proposal: "resnet10a", Refinement: "resnet50",
			Cfg: catdet.DefaultConfig(),
		},
		Preset:       catdet.MiniKITTIPreset(),
		Seed:         1,
		Streams:      streams,
		FPS:          fps,
		Executors:    1,
		QueueCap:     6,
		MaxStaleness: 0.4,
		StatsWindow:  64,
		Sink: catdet.ServeSinkFunc(func(e catdet.ServeEvent) {
			if e.Kind == catdet.ServeEventServed {
				served.Add(1)
			} else {
				dropped.Add(1)
			}
		}),
	})
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	// Caller-owned feeds: each goroutine paces its own cadence in real
	// time (a few ms per frame so the demo finishes quickly) and stamps
	// arrivals on the virtual clock. The channel serializes the pushes;
	// per-stream times are monotone, which is all Submit requires.
	ch := make(chan catdet.ServeArrival, 16)
	var feeds sync.WaitGroup
	for s := 0; s < streams; s++ {
		feeds.Add(1)
		go func(s int) {
			defer feeds.Done()
			rng := rand.New(rand.NewSource(int64(s) + 1))
			at := rng.Float64() / fps
			for k := 0; k < perStream; k++ {
				ch <- catdet.ServeArrival{Stream: s, Frame: k, At: at}
				at += (0.5 + rng.Float64()) / fps // jittered camera cadence
				time.Sleep(2 * time.Millisecond)  // real-time pacing
			}
		}(s)
	}
	go func() { feeds.Wait(); close(ch) }()

	ingested := make(chan error, 1)
	go func() {
		for a := range ch {
			if err := srv.Submit(a.Stream, a.Frame, a.At); err != nil {
				ingested <- err
				return
			}
		}
		ingested <- nil
	}()

	fmt.Printf("live ingest: %d feeds x ~%.0f fps into 1 executor (queue cap 6, stale 0.4s)\n\n", streams, fps)
	fmt.Println("t_virtual  arrived  served  dropped  depth  tput_fps  drop%   win_p50   win_p99")
	ticker := time.NewTicker(150 * time.Millisecond)
	defer ticker.Stop()
	for live := true; live; {
		select {
		case err := <-ingested:
			if err != nil {
				panic(err)
			}
			live = false
		case <-ticker.C:
		}
		st := srv.Stats()
		fl := st.Fleet
		fmt.Printf("%8.2fs  %7d  %6d  %7d  %5d  %8.1f  %5.1f  %7.1fms %8.1fms\n",
			st.Now, fl.Arrived, fl.Served, fl.DroppedQueue+fl.DroppedStale, st.QueueDepth,
			fl.Throughput, 100*fl.DropRate, 1000*fl.Latency.P50, 1000*fl.Latency.P99)
	}

	res, err := srv.Drain(context.Background())
	if err != nil {
		panic(err)
	}
	fl := res.Fleet
	fmt.Printf("\ndrained: %d/%d served, drop rate %.1f%%, p99 %.1fms over %.1fs of virtual load\n",
		fl.Served, fl.Arrived, 100*fl.DropRate, 1000*fl.Latency.P99, res.LastEventAt)
	fmt.Printf("sink saw %d served + %d dropped events = %d arrivals (books balance: %v)\n",
		served.Load(), dropped.Load(), fl.Arrived,
		int(served.Load()+dropped.Load()) == fl.Arrived)
	fmt.Println("\nthe same engine, scheduler and backpressure policies as catdet.Serve —")
	fmt.Println("but the arrival process belongs to the caller: any source that can")
	fmt.Println("stamp (stream, frame, time) can drive the fleet, and stats/events")
	fmt.Println("stream out while it runs instead of after it drains.")
}
