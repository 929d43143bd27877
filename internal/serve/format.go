package serve

import (
	"fmt"
	"io"
)

// ms renders seconds as milliseconds for the text report.
func ms(s float64) string { return fmt.Sprintf("%.1fms", 1000*s) }

// WriteText prints the human-readable scenario report. Every value is
// derived from the Result alone, so the text — like the JSON — is
// byte-identical across reruns of the same Config.
func (r *Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "system:      %s\n", r.System)
	fmt.Fprintf(w, "load:        %d streams x %.1f fps (%s), %.1fs, preset %s, seed %d\n",
		r.Streams, r.FPS, r.Arrivals, r.Duration, r.Preset, r.Seed)
	stale := "off"
	if r.MaxStaleness > 0 {
		stale = ms(r.MaxStaleness)
	}
	degrade := "off"
	if r.DegradeDepth > 0 {
		degrade = fmt.Sprintf("depth>=%d", r.DegradeDepth)
	}
	fmt.Fprintf(w, "fleet:       %d executors, sched %s, batch %d, queue cap %d, %s, stale %s, degrade %s\n",
		r.Executors, r.Scheduler, r.BatchSize, r.QueueCap, r.Drop, stale, degrade)
	if r.ReconnectPolicy != "" || r.PoisonPolicy != "" {
		rec, poi := r.ReconnectPolicy, r.PoisonPolicy
		if rec == "" {
			rec = ReconnectReject
		}
		if poi == "" {
			poi = PoisonError
		}
		fmt.Fprintf(w, "faults:      reconnect %s, poison %s (%d reconnects, %d pills dropped)\n",
			rec, poi, r.Fleet.Reconnects, r.Fleet.DroppedPoison)
	}
	if ch := r.Chaos; ch != nil {
		fmt.Fprintf(w, "chaos:       dropout %.1f/min (mean %.1fs, renumber %v), fps jitter %.2f, clock skew %.2fs, poison rate %.2f\n",
			ch.DropoutRate, ch.DropoutMeanLen, ch.Renumber, ch.FPSJitter, ch.ClockSkew, ch.PoisonRate)
	}
	if c := r.Control; c != nil {
		fmt.Fprintf(w, "adaptive:    controller %s, tick %s (%d ticks, %d mode switches, quality served %.2f)\n",
			c.Kind, ms(c.Interval), r.ControlTicks, r.ModeSwitches, r.Fleet.QualityServed())
	}
	fl := r.Fleet
	fmt.Fprintf(w, "served:      %d/%d frames in %d launches (throughput %.1f fps, drop rate %.1f%%, degraded %d)\n",
		fl.Served, fl.Arrived, r.Batches, fl.Throughput, 100*fl.DropRate, fl.Degraded)
	fmt.Fprintf(w, "latency:     p50 %s  p95 %s  p99 %s  max %s  (mean %s)\n",
		ms(fl.Latency.P50), ms(fl.Latency.P95), ms(fl.Latency.P99), ms(fl.Latency.Max), ms(fl.Latency.Mean))
	fmt.Fprintf(w, "queue:       avg depth %.2f, max %d; executor utilization %.1f%%; makespan %.2fs\n",
		r.AvgQueueDepth, r.MaxQueueDepth, 100*r.Utilization, r.LastEventAt)
	if len(r.PerClass) > 0 {
		WriteRows(w, "per-class", r.PerClass)
	}
	WriteRows(w, "per-stream", r.PerStream)
}

// WriteRows prints one titled table of StreamStats rows: the per-class
// and per-stream tables of the serve and cluster text reports.
func WriteRows(w io.Writer, title string, rows []StreamStats) {
	fmt.Fprintln(w, title+":")
	for _, st := range rows {
		fmt.Fprintf(w, "  %-18s served %4d/%-4d  drop %5.1f%%  p50 %8s  p99 %8s\n",
			st.ID, st.Served, st.Arrived, 100*st.DropRate, ms(st.Latency.P50), ms(st.Latency.P99))
	}
}
