package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/serve/control"
	"repro/internal/serve/sched"
	"repro/internal/sim"
	"repro/internal/video"
)

// session is one shadow detection session: the system a shard runs for
// a stream, stepped again by the benchmark on the frames the shard served.
type session struct {
	sys core.System
	sh  *shadow
	// frames are the served frames awaiting their replayed step.
	frames []servedFrame
	// seized is the lowest frame index a kill of the shard seized from
	// the stream (-1: none). The program may have stepped it before the
	// kill, which the sink does not show, so the copy's later steps can
	// differ from the program's.
	seized int
}

// servedFrame is one served frame's sink event with the span of the call
// that emitted it and its request id.
type servedFrame struct {
	e           serve.Event
	parent, req int32
}

// servingReplay re-runs, after a traced pass, the layer work behind its
// calls: world growth, each served frame's session step with the layers
// under it and its pricing, and a standalone scheduler fed the submit
// order and the sink's pops.
type servingReplay struct {
	spec     sim.SystemSpec
	preset   video.Preset
	seed     int64
	rec      *recorder
	reqBase  int // offset of this world's request ids
	growers  []*video.Grower
	sessions map[[2]int]*session
	scheds   map[int]sched.Scheduler
	kind     sched.Kind
	schedCfg sched.Config
	arrIdx   [][]int32         // arrival index of (stream, frame)
	dets     [][][]geom.Scored // the copy's detections per stream and served frame
	served   [][]bool

	nServed            int
	degraded, modeFull int // served frames priced proposal-only, full-frame
	ops                float64
	priceSum, priceMax float64
	latBelowPrice      int
}

func newServingReplay(sc scenario, seed int64, arr []serve.Arrival, rec *recorder, reqBase int) *servingReplay {
	cfg := sc.base.Normalized()
	p := cfg.Preset
	p.FPS = cfg.FPS
	rp := &servingReplay{
		spec: cfg.Spec, preset: p, seed: seed, rec: rec, reqBase: reqBase,
		growers:  make([]*video.Grower, cfg.Streams),
		sessions: map[[2]int]*session{},
		scheds:   map[int]sched.Scheduler{},
		kind:     cfg.Scheduler,
		schedCfg: sched.Config{Cap: cfg.QueueCap, DropNewest: cfg.Drop == serve.DropNewest, Streams: cfg.Streams},
		arrIdx:   make([][]int32, cfg.Streams),
		dets:     make([][][]geom.Scored, cfg.Streams),
		served:   make([][]bool, cfg.Streams),
	}
	for i, a := range arr {
		rp.arrIdx[a.Stream] = append(rp.arrIdx[a.Stream], int32(reqBase+i))
	}
	return rp
}

// grow replays the world growth a Submit of frame does: the stream's
// world is extended to hold it.
func (rp *servingReplay) grow(stream, frame int, parent, req int32) {
	g := rp.growers[stream]
	if g == nil {
		g = video.NewGrower(rp.preset, rp.seed, stream)
		rp.growers[stream] = g
	}
	if len(g.Sequence().Frames) > frame {
		return
	}
	t := rp.rec.now()
	g.Grow(frame + 1)
	rp.rec.end(spVideoGrow, parent, req, t)
}

func (rp *servingReplay) scheduler(shard int) (sched.Scheduler, error) {
	s, ok := rp.scheds[shard]
	if !ok {
		var err error
		if s, err = sched.New(rp.kind, rp.schedCfg); err != nil {
			return nil, err
		}
		rp.scheds[shard] = s
	}
	return s, nil
}

// admit replays a submission into the shard's standalone scheduler.
func (rp *servingReplay) admit(shard int, a serve.Arrival, req int32) error {
	s, err := rp.scheduler(shard)
	if err != nil {
		return err
	}
	t := rp.rec.now()
	s.Admit(sched.Job{Stream: a.Stream, Frame: a.Frame, Arrive: a.At, Deadline: a.At})
	rp.rec.end(spSchedAdmit, noParent, req, t)
	return nil
}

func (rp *servingReplay) pop(shard int, req int32) error {
	s, err := rp.scheduler(shard)
	if err != nil {
		return err
	}
	t := rp.rec.now()
	s.Next()
	rp.rec.end(spSchedNext, noParent, req, t)
	return nil
}

// session is the copy of the shard's session for a stream.
func (rp *servingReplay) session(shard, stream int) *session {
	key := [2]int{shard, stream}
	ss, ok := rp.sessions[key]
	if !ok {
		ss = &session{seized: -1}
		rp.sessions[key] = ss
	}
	return ss
}

// event replays the scheduler work of one sink event emitted during the
// call whose span is parent, and queues a served frame for its step.
func (rp *servingReplay) event(se sinkEvent, parent int32) error {
	e := se.ev
	req := int32(rp.reqBase) + se.req
	switch e.Kind {
	case serve.EventDroppedStale:
		return rp.pop(se.shard, req)
	case serve.EventFailedOver:
		if ss := rp.session(se.shard, e.Stream); ss.seized < 0 || e.Frame < ss.seized {
			ss.seized = e.Frame
		}
		return nil
	case serve.EventServed:
	default:
		return nil
	}
	if err := rp.pop(se.shard, req); err != nil {
		return err
	}
	if ix := rp.arrIdx[e.Stream]; e.Frame < len(ix) {
		req = ix[e.Frame]
	}
	ss := rp.session(se.shard, e.Stream)
	ss.frames = append(ss.frames, servedFrame{e: e, parent: parent, req: req})
	return nil
}

// stepSessions steps every session copy on its served frames in frame
// order, the order the program stepped them: FIFO dispatches a stream's
// frames in arrival order, whereas completion-time accounting can emit
// their served events out of it.
func (rp *servingReplay) stepSessions() error {
	keys := make([][2]int, 0, len(rp.sessions))
	for k := range rp.sessions {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		ss := rp.sessions[k]
		sort.Slice(ss.frames, func(i, j int) bool { return ss.frames[i].e.Frame < ss.frames[j].e.Frame })
		for _, sf := range ss.frames {
			if err := rp.step(ss, sf); err != nil {
				return err
			}
		}
	}
	return nil
}

// step replays one served frame: its session step with the layers under
// it, and its pricing in the mode it was served in.
func (rp *servingReplay) step(ss *session, sf servedFrame) error {
	e, parent, req := sf.e, sf.parent, sf.req
	rp.grow(e.Stream, e.Frame, parent, req)
	seq := rp.growers[e.Stream].Sequence()
	if ss.sys == nil {
		sys, err := rp.spec.Build(rp.preset.ClassList())
		if err != nil {
			return err
		}
		sh, err := newShadow(rp.spec, rp.preset.ClassList(), rp.rec)
		if err != nil {
			return err
		}
		sys.Reset(seq)
		sh.reset(seq)
		ss.sys, ss.sh = sys, sh
	}
	f := detector.Frame{SeqID: seq.ID, Index: e.Frame, Width: seq.Width, Height: seq.Height, Objects: seq.Frames[e.Frame].Objects}
	t := rp.rec.now()
	out := ss.sys.Step(f)
	id := rp.rec.end(spCoreStep, parent, req, t)
	if !ss.sh.replay(f, &out, id, req) {
		ss.sh.n.mismatches++
	}
	mode := control.Mode(e.Mode)
	if mode == control.ModeFull {
		rp.modeFull++
	}
	if e.Degraded {
		mode = control.ModeProposal
	}
	if mode == control.ModeProposal {
		rp.degraded++
	}
	if ss.seized >= 0 && e.Frame > ss.seized {
		ss.sh.n.afterSeize++
	}
	price, ops := ss.sh.price(f, &out, mode, parent, req)
	rp.priceSum += price
	rp.priceMax = math.Max(rp.priceMax, price)
	// Latency is completion minus arrival, so it holds the service time
	// up to the rounding of that subtraction.
	if e.Latency < price*(1-1e-9) {
		rp.latBelowPrice++
	}
	rp.nServed++
	rp.ops += ops
	d, sv := rp.dets[e.Stream], rp.served[e.Stream]
	for len(d) <= e.Frame {
		d, sv = append(d, nil), append(sv, false)
	}
	d[e.Frame], sv[e.Frame] = out.Detections, true
	rp.dets[e.Stream], rp.served[e.Stream] = d, sv
	return nil
}

// evaluate scores the copy's detections of the served frames (the sink
// does not carry the program's) with the paper's metrics against
// the ground truth of the frames that were served: an unserved frame is
// left out of the evaluation (it is unlabeled in the copy scored here),
// so the delay counts stream frames from an object's first served,
// eligible frame to its first served detection.
func (rp *servingReplay) evaluate() (mapHard, md08Hard float64, scored int) {
	ds := &dataset.Dataset{Name: rp.preset.Name, Classes: rp.preset.ClassList()}
	dets := metrics.Detections{}
	for s, g := range rp.growers {
		if g == nil {
			continue
		}
		seq := *g.Sequence()
		seq.Frames = append([]dataset.Frame(nil), seq.Frames...)
		d := make([][]geom.Scored, len(seq.Frames))
		copy(d, rp.dets[s])
		for i := range seq.Frames {
			seq.Frames[i].Labeled = seq.Frames[i].Labeled && i < len(rp.served[s]) && rp.served[s][i]
		}
		for _, fr := range d {
			scored += len(fr)
		}
		ds.Sequences = append(ds.Sequences, seq)
		dets[seq.ID] = d
	}
	t := rp.rec.now()
	mapHard, _ = metrics.MAP(ds, dets, dataset.Hard)
	rp.rec.end(spMetricsMAP, noParent, noParent, t)
	t = rp.rec.now()
	md08Hard, _, _ = metrics.MeanDelayAtPrecision(ds, dets, dataset.Hard, sim.Beta)
	rp.rec.end(spMetricsDelay, noParent, noParent, t)
	return mapHard, md08Hard, scored
}

// tracedWorld is what the traced run measured on one world.
type tracedWorld struct {
	b                      *books
	events                 int
	tracedWall, replayWall float64
	counts                 layerCounts
	mapHard, md08Hard      float64
	saving                 float64
	scored                 int
}

// tracedServing is the serving traced run: one more pass over every world
// with a sink recording each outcome and spans around every call into
// the system, each followed by the replay of the layer work behind those
// calls.
func tracedServing(o options, sc scenario, res *result, worlds []*servingWorld) error {
	rec := newRecorder(time.Now())
	var tw []tracedWorld
	reqBase := 0
	for _, w := range worlds {
		t, err := traceWorld(sc, res, w, rec, reqBase)
		if err != nil {
			return err
		}
		tw = append(tw, t)
		reqBase += len(w.arr) + 1
	}

	var mapH, md08, saving []float64
	var counts layerCounts
	scored, events, submits := 0, 0, 0
	tracedWall, replayWall := 0.0, 0.0
	for i, t := range tw {
		mapH = append(mapH, t.mapHard)
		md08 = append(md08, t.md08Hard)
		saving = append(saving, t.saving)
		counts.add(&t.counts)
		scored += t.scored
		events += t.events
		submits += len(worlds[i].arr)
		tracedWall += t.tracedWall
		replayWall += t.replayWall
	}
	res.e2e["map_hard"] = mean(mapH)
	res.e2e["md08_hard"] = mean(md08)
	res.e2e["ops_saving_x"] = mean(saving)
	if counts.mismatches > 0 {
		res.fail("%d replayed frames differ from the session's output", counts.mismatches)
	}

	layer := res.layer
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "sim.") {
			layer[d.name] = 0
		}
	}
	st := aggregate(rec.spans)
	layerMetrics(layer, st, &counts)
	st.sumCheck(layer)
	n := float64(submits)
	layer["video.generate_s"] = float64(st.total[spVideoGrow]) / 1e9
	layer["video.grow_ns_per_frame"] = st.mean(spVideoGrow)
	layer["video.frames_grown"] = float64(st.count[spVideoGrow])
	layer["metrics.map_s"] = float64(st.total[spMetricsMAP]) / 1e9
	layer["metrics.delay_s"] = float64(st.total[spMetricsDelay]) / 1e9
	layer["metrics.dets_scored"] = float64(scored)

	submitKind, drainKind := spServeSubmit, spServeDrain
	if sc.cluster != nil {
		submitKind, drainKind = spClusterSubmit, spClusterDrain
	}
	layer["serve.submit_ns"] = st.mean(spServeSubmit)
	layer["serve.drain_ns"] = st.mean(spServeDrain)
	layer["serve.stats_ns"] = st.mean(spServeStats)
	layer["serve.self_ns"] = float64(st.self[submitKind]+st.self[drainKind]) / n
	layer["serve.sink_events_per_submit"] = float64(events) / n
	layer["sched.admit_ns"] = st.mean(spSchedAdmit)
	layer["sched.next_ns"] = st.mean(spSchedNext)
	layer["cluster.submit_ns"] = st.mean(spClusterSubmit)
	layer["cluster.drain_ns"] = st.mean(spClusterDrain)

	// Book-keeping metrics are per world, averaged over the worlds.
	perWorld := map[string][]float64{}
	add := func(name string, v float64) { perWorld[name] = append(perWorld[name], v) }
	for _, t := range tw {
		b := t.b
		busy, capacity := b.executorSeconds()
		var batches, maxQueue, ticks, switches int
		for _, r := range b.shards {
			batches += r.Batches
			maxQueue = max(maxQueue, r.MaxQueueDepth)
			ticks += r.ControlTicks
			switches += r.ModeSwitches
		}
		add("serve.utilization", busy/capacity)
		add("serve.batches", float64(batches))
		add("serve.max_queue_depth", float64(maxQueue))
		add("sched.evict_ratio", float64(b.fleet.DroppedQueue)/float64(b.fleet.Arrived))
		add("sched.stale_ratio", float64(b.fleet.DroppedStale)/float64(b.fleet.Arrived))
		add("control.ticks", float64(ticks))
		add("control.mode_switches", float64(switches))
		add("control.degraded_ratio", float64(b.fleet.Degraded)/math.Max(1, float64(b.fleet.Served)))
		add("cluster.migrations", float64(b.migrations))
		add("cluster.resizes", float64(b.resizes))
		add("cluster.kills", float64(b.kills))
		add("cluster.replayed", float64(b.replayed))
		add("cluster.rebalanced", float64(b.rebalanced))
	}
	for name, v := range perWorld {
		layer[name] = mean(v)
	}
	// Traced passes exclude the replay, which runs after each drain.
	layer["trace.overhead_x"] = tracedWall / (n / res.e2e["frames_per_s"])
	layer["trace.replay_s"] = replayWall
	if o.spans != "" {
		return writeSpans(o.spans, rec.spans)
	}
	return nil
}

// traceWorld runs the traced pass over one world and replays it.
// reqBase offsets the world's request ids in the shared recorder.
func traceWorld(sc scenario, res *result, w *servingWorld, rec *recorder, reqBase int) (tracedWorld, error) {
	var out tracedWorld
	var evs []sinkEvent
	cur := int32(0)
	record := func(shard int, e serve.Event) { evs = append(evs, sinkEvent{req: cur, shard: shard, ev: e}) }
	tg, err := sc.newTarget(w.seed, record)
	if err != nil {
		return out, err
	}
	defer tg.Close()
	submitKind, drainKind := spServeSubmit, spServeDrain
	if sc.cluster != nil {
		submitKind, drainKind = spClusterSubmit, spClusterDrain
	}

	arr := w.arr
	submitSpan := make([]int32, len(arr))
	shardOf := make([]int, len(arr))
	errs := 0
	nextPoll := sc.poll
	t0 := time.Now()
	for i, a := range arr {
		req := int32(reqBase + i)
		if sc.poll > 0 && a.At >= nextPoll {
			t := rec.now()
			tg.poll()
			rec.end(spServeStats, noParent, req, t)
			for nextPoll <= a.At {
				nextPoll += sc.poll
			}
		}
		cur = int32(i)
		t := rec.now()
		if err := tg.Submit(a.Stream, a.Frame, a.At); err != nil {
			errs++
		}
		submitSpan[i] = rec.end(submitKind, noParent, req, t)
		shardOf[i] = tg.shardOf(a.Stream)
	}
	cur = int32(len(arr))
	t := rec.now()
	b, err := tg.drain()
	if err != nil {
		return out, err
	}
	drainSpan := rec.end(drainKind, noParent, int32(reqBase+len(arr)), t)
	out.tracedWall = time.Since(t0).Seconds()
	out.b, out.events = b, len(evs)
	res.attempted += len(arr)
	bad := servingChecks(res, sc, b, w, errs)

	// Replay the layer work behind the recorded calls.
	tr := time.Now()
	rp := newServingReplay(sc, w.seed, arr, rec, reqBase)
	ei := 0
	for i, a := range arr {
		parent := submitSpan[i]
		rp.grow(a.Stream, a.Frame, parent, int32(reqBase+i))
		if err := rp.admit(shardOf[i], a, int32(reqBase+i)); err != nil {
			return out, err
		}
		for ; ei < len(evs) && evs[ei].req == int32(i); ei++ {
			if err := rp.event(evs[ei], parent); err != nil {
				return out, err
			}
		}
	}
	for ; ei < len(evs); ei++ {
		if err := rp.event(evs[ei], drainSpan); err != nil {
			return out, err
		}
	}
	if err := rp.stepSessions(); err != nil {
		return out, err
	}
	for _, ss := range rp.sessions {
		if ss.sh != nil {
			out.counts.add(&ss.sh.n)
		}
	}
	out.mapHard, out.md08Hard, out.scored = rp.evaluate()
	out.replayWall = time.Since(tr).Seconds()
	single := detector.MustNew("resnet50").Cost.FullFrameOps(rp.preset.Width, rp.preset.Height)
	out.saving = single / (rp.ops / float64(rp.nServed))

	// Shadow-replay equality: the replayed layers reproduce every served
	// frame's step, the copy priced as many frames in each mode as the
	// books served in it, and where the books price frames exactly as
	// the replay does, the replayed prices add up to the books' busy
	// executor time.
	if rp.nServed != b.fleet.Served || rp.degraded != b.fleet.Degraded || rp.modeFull != b.fleet.ModeFull {
		res.fail("replayed %d served frames (%d proposal-only, %d full-frame), books say %d (%d, %d)",
			rp.nServed, rp.degraded, rp.modeFull, b.fleet.Served, b.fleet.Degraded, b.fleet.ModeFull)
		bad = true
	}
	if out.counts.mismatches > 0 {
		bad = true
	}
	if sc.steady() {
		busy, _ := b.executorSeconds()
		maxService := 0.0
		for _, r := range b.shards {
			maxService = math.Max(maxService, r.MaxService)
		}
		if math.Abs(rp.priceSum-busy) > 1e-9*busy || rp.priceMax != maxService || rp.latBelowPrice > 0 {
			res.fail("replayed prices (sum %v, max %v, %d latencies below price) disagree with the books (busy %v, max %v)",
				rp.priceSum, rp.priceMax, rp.latBelowPrice, busy, maxService)
			bad = true
		}
	}
	if bad {
		res.failed += len(arr)
	}
	return out, nil
}
