package cluster

import (
	"fmt"
	"io"

	"repro/internal/serve"
)

// ShardBook is one shard's share of the cluster outcome: its tier, the
// streams it owned when the scenario ended, its rental cost and its
// full single-fleet Result (whose PerStream rows cover the entire
// stream space — streams the shard never served show zero rows, so the
// books partition the cluster totals exactly).
type ShardBook struct {
	Shard int    `json:"shard"`
	Tier  string `json:"tier"`
	// Streams are the stream indices owned by this shard at the end of
	// the scenario (migrations included), ascending.
	Streams []int `json:"streams"`
	// Cost is the shard's modeled rental in dollars: the capacity
	// integral ∫ executors(t) dt times the tier's per-second price. For
	// a never-resized shard the integral is Executors times the shard
	// makespan.
	Cost   float64       `json:"cost_dollars"`
	Result *serve.Result `json:"result"`
	// Fault is the shard's failure ledger, present only under an active
	// FaultPlan (fault-free books keep their historical bytes).
	Fault *ShardFaultBook `json:"fault,omitempty"`
}

// ShardFaultBook is one shard's failure ledger. Every field carries
// omitempty so an untouched shard's book stays minimal.
type ShardFaultBook struct {
	// Kills counts the shard's failures; Downtime the virtual seconds
	// it spent dead (kill to effective revival, or to the cluster
	// makespan if never revived).
	Kills    int     `json:"kills,omitempty"`
	Downtime float64 `json:"downtime_s,omitempty"`
	// RecoveryLatencies are the kill-to-first-served-frame latencies of
	// each completed recovery, in kill order.
	RecoveryLatencies []float64 `json:"recovery_latencies_s,omitempty"`
	// BornAt is when an add-shard fault created the shard (0 for the
	// initial topology); Down marks a shard still dead at the end.
	BornAt float64 `json:"born_at_s,omitempty"`
	Down   bool    `json:"down,omitempty"`
}

// FaultBook is the cluster-wide failure ledger, present in Result only
// under an active FaultPlan.
type FaultBook struct {
	// Failover echoes the seized-frame policy the run used.
	Failover FailoverPolicy `json:"failover,omitempty"`
	// Kills, Revivals and ShardsAdded count the executed faults;
	// Replaced counts failover re-placements through the live ring and
	// Rebalanced the bulk-planner moves after membership gains;
	// RingEpoch counts online ring resizes.
	Kills       int `json:"kills,omitempty"`
	Revivals    int `json:"revivals,omitempty"`
	ShardsAdded int `json:"shards_added,omitempty"`
	Replaced    int `json:"replaced,omitempty"`
	Rebalanced  int `json:"rebalanced,omitempty"`
	RingEpoch   int `json:"ring_epoch,omitempty"`
	// Replayed counts seized frames re-submitted to survivors (each is
	// subtracted from the merged Arrived so offered load stays the
	// schedule's); DroppedFailover the seized frames abandoned under
	// the drop policy.
	Replayed        int `json:"replayed,omitempty"`
	DroppedFailover int `json:"dropped_failover,omitempty"`
	// Downtime sums the per-shard dead seconds. Availability is the
	// uptime fraction, 1 - Downtime/sum of per-shard lifespans; the
	// availability-adjusted economics headline scales ServedPerDollar
	// by it.
	Downtime             float64 `json:"downtime_s,omitempty"`
	Availability         float64 `json:"availability,omitempty"`
	AvailServedPerDollar float64 `json:"avail_served_per_dollar,omitempty"`
}

// Result is the merged outcome of one cluster scenario: plain data with
// a deterministic JSON encoding, byte-identical across reruns and
// Base.StepWorkers settings.
type Result struct {
	// Scenario identity: the Base headline plus the cluster topology.
	System              string            `json:"system"`
	Preset              string            `json:"preset"`
	Seed                int64             `json:"seed"`
	Streams             int               `json:"streams"`
	FPS                 float64           `json:"fps"`
	Arrivals            serve.ArrivalKind `json:"arrivals"`
	Duration            float64           `json:"duration_s"`
	Executors           int               `json:"executors"`
	Shards              int               `json:"shards"`
	VirtualNodes        int               `json:"virtual_nodes"`
	PlacementLoadFactor float64           `json:"placement_load_factor"`
	HopLatency          float64           `json:"hop_latency_s"`
	GPUTiers            []string          `json:"gpu_tiers"`
	Migration           *Migration        `json:"migration,omitempty"`
	Autoscale           *Autoscale        `json:"autoscale,omitempty"`

	// Fleet aggregates every stream across every shard; PerStream is
	// indexed by stream and merges each stream's rows across shards
	// (latency percentiles are recomputed from the union of served
	// latencies, not averaged from shard summaries).
	Fleet     serve.StreamStats   `json:"fleet"`
	PerStream []serve.StreamStats `json:"per_stream"`

	// Control-plane totals. ControlTicks and ModeSwitches sum the
	// per-shard adaptive-controller activity (serve/control) and stay
	// absent while no controller is configured.
	Migrations   int `json:"migrations"`
	Resizes      int `json:"resizes"`
	ControlTicks int `json:"control_ticks,omitempty"`
	ModeSwitches int `json:"mode_switches,omitempty"`

	PerShard []ShardBook `json:"per_shard"`

	// Faults is the failure ledger, absent without an active FaultPlan.
	Faults *FaultBook `json:"faults,omitempty"`

	// Cost sums the shard rentals; ServedPerDollar is the cluster's
	// economic headline, Fleet.Served/Cost (0 when the cost is 0).
	Cost            float64 `json:"cost_dollars"`
	ServedPerDollar float64 `json:"served_per_dollar"`

	// LastEventAt is the cluster makespan: the latest shard makespan.
	LastEventAt float64 `json:"last_event_at_s"`
}

// merge folds the per-shard books into the cluster Result. Called with
// r.mu held; books is indexed by shard.
func (r *Router) merge(books []*serve.Result) *Result {
	cfg := r.cfg
	base := books[0]
	res := &Result{
		System:              base.System,
		Preset:              base.Preset,
		Seed:                base.Seed,
		Streams:             base.Streams,
		FPS:                 base.FPS,
		Arrivals:            base.Arrivals,
		Duration:            base.Duration,
		Executors:           base.Executors,
		Shards:              cfg.Shards,
		VirtualNodes:        virtualNodes,
		PlacementLoadFactor: placementLoadFactor,
		HopLatency:          cfg.HopLatency,
		GPUTiers:            append([]string(nil), cfg.GPUTiers...),
		Migrations:          r.migrations,
		Resizes:             r.resizes,
		PerStream:           make([]serve.StreamStats, cfg.Base.Streams),
		PerShard:            make([]ShardBook, len(books)),
	}
	if cfg.Migration.QueueDepth > 0 {
		m := cfg.Migration
		res.Migration = &m
	}
	if cfg.Autoscale.Enabled {
		a := cfg.Autoscale
		res.Autoscale = &a
	}
	for s, b := range books {
		if b.LastEventAt > res.LastEventAt {
			res.LastEventAt = b.LastEventAt
		}
		res.ControlTicks += b.ControlTicks
		res.ModeSwitches += b.ModeSwitches
		seconds := b.ExecutorSeconds
		if b.Resizes == 0 && !cfg.Autoscale.Enabled {
			seconds = float64(b.Executors) * b.LastEventAt
		}
		tier := r.shards[s].tier
		cost := seconds * tier.DollarsPerSecond()
		res.PerShard[s] = ShardBook{
			Shard:   s,
			Tier:    tier.Name,
			Streams: r.ownedBy(s),
			Cost:    cost,
			Result:  b,
		}
		res.Cost += cost
	}
	var all []float64
	for i := range res.PerStream {
		row := &res.PerStream[i]
		for _, b := range books {
			row.ID = b.PerStream[i].ID
			row.Add(b.PerStream[i])
		}
		// A replayed frame arrived twice — once on the shard that died
		// holding it, once on the survivor that served it. Subtracting
		// the replays keeps the merged Arrived equal to the offered
		// schedule, so arrived == served + drops + dropped_failover
		// holds cluster-wide under any FailoverPolicy.
		row.Replayed = r.replayed[i]
		row.DroppedFailover = r.dropFail[i]
		row.Arrived -= r.replayed[i]
		row.Derive(res.LastEventAt, r.lat[i])
		all = append(all, r.lat[i]...)
		res.Fleet.Add(*row)
	}
	res.Fleet.ID = "cluster"
	res.Fleet.Derive(res.LastEventAt, all)
	if res.Cost > 0 {
		res.ServedPerDollar = float64(res.Fleet.Served) / res.Cost
	}
	if cfg.Faults.Enabled() {
		fb := &FaultBook{
			Failover:        cfg.Faults.Failover,
			Kills:           r.kills,
			Revivals:        r.revivals,
			ShardsAdded:     r.added,
			Replaced:        r.replaced,
			Rebalanced:      r.rebalanced,
			RingEpoch:       r.ringEpoch,
			Replayed:        res.Fleet.Replayed,
			DroppedFailover: res.Fleet.DroppedFailover,
		}
		lifespan := 0.0
		for s, sh := range r.shards {
			down := sh.downtime
			if !sh.alive {
				// Still dead at the end: downtime runs to the makespan.
				if d := res.LastEventAt - sh.downSince; d > 0 {
					down += d
				}
			}
			fb.Downtime += down
			if span := res.LastEventAt - sh.bornAt; span > 0 {
				lifespan += span
			}
			res.PerShard[s].Fault = &ShardFaultBook{
				Kills:             sh.killCount,
				Downtime:          down,
				RecoveryLatencies: append([]float64(nil), sh.recoveries...),
				BornAt:            sh.bornAt,
				Down:              !sh.alive,
			}
		}
		if lifespan > 0 {
			fb.Availability = 1 - fb.Downtime/lifespan
		}
		fb.AvailServedPerDollar = res.ServedPerDollar * fb.Availability
		res.Faults = fb
	}
	return res
}

// ms renders seconds as milliseconds for the text report.
func ms(s float64) string { return fmt.Sprintf("%.1fms", 1000*s) }

// WriteText prints the human-readable cluster report. Like the JSON it
// is byte-identical across reruns of the same Config.
func (r *Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "system:      %s\n", r.System)
	fmt.Fprintf(w, "load:        %d streams x %.1f fps (%s), %.1fs, preset %s, seed %d\n",
		r.Streams, r.FPS, r.Arrivals, r.Duration, r.Preset, r.Seed)
	mig := "off"
	if r.Migration != nil {
		mig = fmt.Sprintf("depth>=%d (cooldown %.1fs, max %d/stream)",
			r.Migration.QueueDepth, r.Migration.Cooldown, r.Migration.MaxPerStream)
	}
	auto := "off"
	if r.Autoscale != nil {
		auto = fmt.Sprintf("[%d,%d] execs, tick %.2fs, up@depth>=%d, down after %d idle",
			r.Autoscale.Min, r.Autoscale.Max, r.Autoscale.Interval, r.Autoscale.UpQueue, r.Autoscale.DownIdle)
	}
	fmt.Fprintf(w, "cluster:     %d shards (vnodes %d, load factor %.2f, hop %s), tiers %v\n",
		r.Shards, r.VirtualNodes, r.PlacementLoadFactor, ms(r.HopLatency), r.GPUTiers)
	fmt.Fprintf(w, "control:     migration %s; autoscale %s\n", mig, auto)
	if r.ControlTicks > 0 {
		fmt.Fprintf(w, "adaptive:    %d control ticks, %d mode switches across shards\n",
			r.ControlTicks, r.ModeSwitches)
	}
	fl := r.Fleet
	fmt.Fprintf(w, "served:      %d/%d frames (throughput %.1f fps, drop rate %.1f%%, degraded %d); %d migrations, %d resizes\n",
		fl.Served, fl.Arrived, fl.Throughput, 100*fl.DropRate, fl.Degraded, r.Migrations, r.Resizes)
	if f := r.Faults; f != nil {
		fmt.Fprintf(w, "failures:    %d kills, %d revivals, %d shards added (%s failover): %d replayed, %d dropped, %d replaced + %d rebalanced moves; downtime %.2fs, availability %.1f%%, %.1f avail-adjusted served/$\n",
			f.Kills, f.Revivals, f.ShardsAdded, f.Failover, f.Replayed, f.DroppedFailover,
			f.Replaced, f.Rebalanced, f.Downtime, 100*f.Availability, f.AvailServedPerDollar)
	}
	fmt.Fprintf(w, "latency:     p50 %s  p95 %s  p99 %s  max %s  (mean %s)\n",
		ms(fl.Latency.P50), ms(fl.Latency.P95), ms(fl.Latency.P99), ms(fl.Latency.Max), ms(fl.Latency.Mean))
	fmt.Fprintf(w, "economics:   $%.4f total, %.1f served frames per dollar; makespan %.2fs\n",
		r.Cost, r.ServedPerDollar, r.LastEventAt)
	fmt.Fprintln(w, "per-shard:")
	for _, b := range r.PerShard {
		fmt.Fprintf(w, "  shard-%d (%s)%*s served %4d/%-4d  util %5.1f%%  $%.4f  streams %v\n",
			b.Shard, b.Tier, 8-len(b.Tier), "", b.Result.Fleet.Served, b.Result.Fleet.Arrived,
			100*b.Result.Utilization, b.Cost, b.Streams)
	}
	serve.WriteRows(w, "per-stream", r.PerStream)
}
