package serve

import (
	"math"
	"math/rand"
)

// ReconnectPolicy selects how Submit treats a per-stream frame-index
// regression — the signature of a camera that dropped out and
// reconnected with restarted numbering. Under the default reject
// policy a regression (and a per-stream arrival-time regression) is a
// hard error, the contract since the Server API landed; the other two
// policies accept the reconnect, count it in StreamStats.Reconnects,
// emit an EventReconnect, and re-stamp a backwards per-stream clock at
// the stream's last arrival instead of erroring (reconnecting cameras
// come back with skewed clocks).
type ReconnectPolicy string

// The reconnect policies.
const (
	// ReconnectReject keeps the strict Submit contract: frame indices
	// strictly increasing, arrival times nondecreasing, anything else
	// is an error.
	ReconnectReject ReconnectPolicy = "reject"
	// ReconnectResume treats the stream as the same camera rebased:
	// the reconnecting frame is renumbered to continue the stream's
	// timeline (wire index w maps to lastFrame+1, w+1 to lastFrame+2,
	// and so on), the detection session keeps its tracker state, and
	// the world continues — the outage is a gap in time, not a new
	// scene.
	ReconnectResume ReconnectPolicy = "resume-with-gap"
	// ReconnectReset treats the reconnect as a new capture session:
	// the stream's detection session is reset (fresh tracker state, in
	// step order so queued pre-reconnect frames still step against the
	// old session) and the wire indices are taken literally, replaying
	// the stream's world from the reconnecting index.
	ReconnectReset ReconnectPolicy = "reset-session"
)

// PoisonPolicy selects how Submit treats a corrupt submission — a
// poison pill: a non-finite arrival time, a negative frame index, or a
// frame index beyond Config.MaxFrame. Pills carry no usable frame, so
// there is nothing to serve; the policies differ in who absorbs the
// damage.
type PoisonPolicy string

// The poison policies.
const (
	// PoisonError fails the Submit call (the strict historical
	// contract; Run stops at the first pill).
	PoisonError PoisonPolicy = "error"
	// PoisonDrop swallows the pill: Submit returns nil, the pill is
	// counted in StreamStats.DroppedPoison and emitted as an
	// EventDroppedPoison, and the stream's session, causality state
	// and stats are untouched — subsequent frames of the same stream
	// serve exactly as if the pill never arrived.
	PoisonDrop PoisonPolicy = "drop"
)

// DefaultMaxFrame bounds the frame index Submit accepts when
// Config.MaxFrame is zero: about ten hours of 30fps video. Without a
// bound, one corrupt submission with a huge index would force the
// lazily-grown synthetic world (memory and CPU linear in the largest
// index) to swallow it — a denial of service by typo.
const DefaultMaxFrame = 1 << 20

// Chaos describes operational faults injected into the preset arrival
// schedule: camera dropouts, variable-fps clients, skewed client
// clocks and corrupt-frame poison pills. The zero value is fully off.
// Chaos perturbs only the offered load — it is applied inside
// Schedule as a pure function of (Config, Seed), so a chaotic
// scenario is exactly as deterministic as a clean one: same config +
// seed means byte-identical results at any executor, batch or
// step-worker count.
type Chaos struct {
	// DropoutRate is the expected number of camera dropouts per stream
	// per minute of offered load; DropoutMeanLen is the mean outage
	// length in seconds (exponential; defaults to 2 when a rate is set
	// and no length is). Frames falling inside an outage are never
	// offered.
	DropoutRate    float64 `json:"dropout_rate_min,omitempty"`
	DropoutMeanLen float64 `json:"dropout_mean_len_s,omitempty"`
	// Renumber restarts each camera's wire frame numbering at 0 after
	// every outage — the realistic reconnect, and the one that needs a
	// server-side Reconnect policy other than the rejecting default
	// (Config.Validate enforces the pairing).
	Renumber bool `json:"renumber,omitempty"`
	// FPSJitter is the standard deviation of the log-normal factor
	// applied to each inter-arrival gap: variable-fps mobile clients
	// whose encoder rate wanders. 0 is a metronome; 0.2 is a phone on
	// a flaky uplink.
	FPSJitter float64 `json:"fps_jitter,omitempty"`
	// ClockSkew is the standard deviation, in seconds, of a constant
	// per-stream offset added to every arrival stamp: fleets of
	// cameras that disagree about what time it is. Skew reorders
	// arrivals across streams while preserving each stream's own
	// order; stamps are clamped at 0.
	ClockSkew float64 `json:"clock_skew_s,omitempty"`
	// PoisonRate is the probability that each surviving frame is
	// replaced in transit by a corrupt poison pill (submitted with
	// frame index -1). Requires Config.Poison == PoisonDrop, or the
	// schedule would fail at the first pill.
	PoisonRate float64 `json:"poison_rate,omitempty"`
}

// enabled reports whether any chaos channel is on.
func (c Chaos) enabled() bool {
	return c.DropoutRate > 0 || c.FPSJitter > 0 || c.ClockSkew > 0 || c.PoisonRate > 0
}

// chaosStream perturbs one stream's clean arrival instants into the
// chaotic wire schedule: jittered spacing, outage-dropped spans with
// optional renumbering, poison substitution and a skewed clock. One
// private RNG per stream, seeded from (cfg.Seed, s) only, so the chaos
// a stream suffers is independent of every fleet knob.
func chaosStream(cfg Config, s int, ts []float64) []Arrival {
	ch := cfg.Chaos
	rng := rand.New(rand.NewSource(cfg.Seed*9_176_941 + int64(s)*15_485_863 + 101))

	// Variable-fps client: each inter-arrival gap is scaled by an
	// independent log-normal factor, preserving order and positivity.
	if ch.FPSJitter > 0 {
		jittered := make([]float64, len(ts))
		prevBase, prev := 0.0, 0.0
		for k, t := range ts {
			gap := t - prevBase
			prevBase = t
			prev += gap * math.Exp(rng.NormFloat64()*ch.FPSJitter)
			jittered[k] = prev
		}
		ts = jittered
	}

	// Camera dropout episodes: Poisson count over the load window,
	// uniform starts, exponential lengths.
	type span struct{ from, to float64 }
	var outages []span
	if ch.DropoutRate > 0 {
		n := poissonVariate(rng, ch.DropoutRate/60*cfg.Duration)
		for i := 0; i < n; i++ {
			from := rng.Float64() * cfg.Duration
			outages = append(outages, span{from, from + rng.ExpFloat64()*ch.DropoutMeanLen})
		}
	}
	inOutage := func(t float64) bool {
		for _, o := range outages {
			if t >= o.from && t < o.to {
				return true
			}
		}
		return false
	}

	// Constant per-stream clock skew. Clamping at zero preserves
	// per-stream order (max is monotone).
	skew := 0.0
	if ch.ClockSkew > 0 {
		skew = rng.NormFloat64() * ch.ClockSkew
	}

	out := make([]Arrival, 0, len(ts))
	wire, dropped := 0, false
	for k, t := range ts {
		if inOutage(t) {
			dropped = true
			continue
		}
		if dropped && ch.Renumber {
			wire = 0
		}
		dropped = false
		frame := k
		if ch.Renumber {
			frame = wire
		}
		wire++
		if ch.PoisonRate > 0 && rng.Float64() < ch.PoisonRate {
			// Corrupted in transit: the camera sent the frame (its
			// numbering advances) but the server receives garbage.
			frame = -1
		}
		out = append(out, Arrival{Stream: s, Frame: frame, At: math.Max(0, t+skew)})
	}
	return out
}

// poissonVariate draws a Poisson count via Knuth's method; chaos rates
// are small, so the loop is short.
func poissonVariate(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
