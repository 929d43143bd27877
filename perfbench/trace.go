package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spanKind names the layer boundary a span was recorded at. Every span is
// recorded by the benchmark around its own call into a package: the
// program itself is not instrumented.
type spanKind uint8

const (
	spCoreStep spanKind = iota
	spDetFull
	spDetRegions
	spGeomMask
	spTrkPredict
	spTrkObserve
	spGPUPrice
	spVideoGrow
	spServeSubmit
	spServeStats
	spServeDrain
	spClusterSubmit
	spClusterDrain
	spSchedAdmit
	spSchedNext
	spMetricsMAP
	spMetricsDelay
	spSimRun
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"core.step", "detector.full", "detector.regions", "geom.mask",
	"tracker.predict", "tracker.observe", "gpumodel.price", "video.grow",
	"serve.submit", "serve.stats", "serve.drain", "cluster.submit",
	"cluster.drain", "sched.admit", "sched.next", "metrics.map",
	"metrics.delay", "sim.run",
}

// noParent marks a root span.
const noParent = -1

// span is one timed call. Times are nanoseconds since the recorder's
// epoch. parent indexes the span that caused this one — for a replayed
// child, the span of the call whose work it reproduces, even though the
// replay runs after that call returned. req is the request the work
// belongs to: the frame offline, the arrival index in serving.
type span struct {
	start, end int64
	parent     int32
	req        int32
	kind       spanKind
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory; one per goroutine.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// now is the current time on the recorder's clock.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// end closes a span begun at start and returns its index.
func (r *recorder) end(kind spanKind, parent, req int32, start int64) int32 {
	r.spans = append(r.spans, span{start: start, end: r.now(), parent: parent, req: req, kind: kind})
	return int32(len(r.spans) - 1)
}

// merge appends other's spans, rebasing their parent indices.
func (r *recorder) merge(other *recorder) {
	base := int32(len(r.spans))
	for _, s := range other.spans {
		if s.parent != noParent {
			s.parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// spanStats aggregates the spans of one run.
type spanStats struct {
	count [numSpanKinds]int
	total [numSpanKinds]int64
	// self is, per kind, the summed duration of its spans minus their
	// children's, each span's share clamped at zero: replayed children
	// can take longer than the call they reproduce, and that excess is
	// reported by sumCheck instead of being subtracted here.
	self [numSpanKinds]int64
	// negative counts parent spans whose self time came out negative;
	// residual sums those negative parts (so it is <= 0), and parentNs
	// is the summed duration of every span that has children.
	negative int
	residual int64
	parentNs int64
	durs     [numSpanKinds][]int64
}

func aggregate(spans []span) *spanStats {
	st := &spanStats{}
	children := make([]int64, len(spans))
	hasChild := make([]bool, len(spans))
	for _, s := range spans {
		st.count[s.kind]++
		st.total[s.kind] += s.dur()
		st.durs[s.kind] = append(st.durs[s.kind], s.dur())
		if s.parent != noParent {
			children[s.parent] += s.dur()
			hasChild[s.parent] = true
		}
	}
	for i, s := range spans {
		self := s.dur() - children[i]
		st.self[s.kind] += max(self, 0)
		if !hasChild[i] {
			continue
		}
		st.parentNs += s.dur()
		if self < 0 {
			st.negative++
			st.residual += self
		}
	}
	return st
}

// mean is the mean duration of one kind of span, 0 when none ran.
func (st *spanStats) mean(k spanKind) float64 {
	if st.count[k] == 0 {
		return 0
	}
	return float64(st.total[k]) / float64(st.count[k])
}

// p50 is the median duration of one kind of span.
func (st *spanStats) p50(k spanKind) float64 {
	d := append([]int64(nil), st.durs[k]...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(nearestRank(d, 0.5))
}

// sumCheck reports the accounting identity parent = children + self,
// with self clamped at zero: the residual share of parent time that
// replayed children over-explain, and how many parent spans did.
func (st *spanStats) sumCheck(layer map[string]float64) {
	layer["sumcheck.negative_self"] = float64(st.negative)
	layer["sumcheck.residual_frac"] = 0
	if st.parentNs > 0 {
		layer["sumcheck.residual_frac"] = float64(st.residual) / float64(st.parentNs)
	}
}

// writeSpans dumps the spans as CSV: index, name, start and end (ns since
// the run began), parent index (-1 for roots) and request id.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,start_ns,end_ns,parent,req")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, spanNames[s.kind], s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// replaySeconds is the time the offline traced run spent in replayed
// layer calls.
func replaySeconds(st *spanStats) float64 {
	var ns int64
	for _, k := range []spanKind{spDetFull, spDetRegions, spGeomMask, spTrkPredict, spTrkObserve, spGPUPrice, spVideoGrow, spSchedAdmit, spSchedNext} {
		ns += st.total[k]
	}
	return float64(ns) / 1e9
}
