package abrsvc

import (
	"math"
	"sync"

	"mpcdash/internal/fastmpc"
	"mpcdash/internal/model"
	"mpcdash/internal/predictor"
)

// session is one registered viewer: the per-session state MPC needs
// between chunks (the error-tracked predictor of Sec 7.1.2 and the last
// decision, which makes retried requests idempotent) plus a FastMPC
// controller over the shared, read-only decision table. The decide path
// below is deterministic — a pure function of the session's request
// history — which is what lets the fleet's svc backend promise
// byte-identical decision sequences across same-seed runs.
type session struct {
	mu sync.Mutex

	id    string
	seq   int // registration sequence number, stamps DecisionEvents
	group string

	ladder  model.Ladder
	ctrl    fastmpc.Controller
	pred    *predictor.ErrorTracked
	horizon int

	// Idempotency: a decide request repeating lastChunk replays lastResp
	// without touching predictor state.
	lastChunk int
	lastResp  DecideResponse

	// lastUsed is the store's idle clock, unix nanoseconds. Guarded by
	// the store's mutex, not the session mutex.
	lastUsed int64
}

// newSession assembles the per-viewer state around a shared table.
func newSession(id string, seq int, rc resolvedConfig, table *fastmpc.CompressedTable) *session {
	return &session{
		id:        id,
		seq:       seq,
		group:     rc.linkGroup,
		ladder:    rc.ladder,
		ctrl:      fastmpc.Controller{Table: table, Robust: rc.robust},
		pred:      predictor.NewErrorTracked(predictor.NewHarmonicMean(rc.window), rc.window),
		horizon:   rc.horizon,
		lastChunk: -1,
	}
}

// decide runs one controller step: feed the reported throughput samples to
// the predictor, forecast, and hand the forecast and the link group's fair
// share to fastmpc.Controller.Step. Callers hold ss.mu. The sequence of
// operations mirrors the simulator's per-chunk loop exactly (Observe the
// realized throughput of the previous chunk, then Predict, then decide), so
// a service-backed session takes the same decisions as a local
// fastmpc.Controller fed the same measurements.
func (ss *session) decide(req *DecideRequest, share float64) DecideResponse {
	for _, v := range req.ThroughputSamples {
		if v > 0 {
			ss.pred.Observe(v)
		}
	}
	// A forecast that is not finite counts as unknown (0). JSON carries no
	// ±Inf or NaN, but finite samples can still produce one: the harmonic
	// mean of 1.7976931348623157e308 overflows to +Inf through its
	// reciprocals, and the encoder would then fail on the response.
	var predicted, lower float64
	if forecast := ss.pred.Predict(ss.horizon); len(forecast) > 0 && forecast[0] < math.Inf(1) {
		predicted = forecast[0]
	}
	// The lower bound costs a second forecast; only robust sessions use it.
	if ss.ctrl.Robust {
		if lb := ss.pred.LowerBound(ss.horizon); len(lb) > 0 && lb[0] < math.Inf(1) {
			lower = lb[0]
		}
	}
	c := ss.ctrl.Step(req.Buffer, req.PrevLevel, predicted, lower, share)
	return DecideResponse{
		Session:       ss.id,
		Chunk:         req.Chunk,
		Level:         c.Level,
		BitrateKbps:   ss.ladder[c.Level],
		PredictedKbps: predicted,
		LowerKbps:     c.Lower,
		FairShareKbps: c.Cap,
	}
}

// lastSample returns the most recent positive throughput sample of a
// decide request (0 when none) — the per-session contribution to its link
// group's aggregate.
//
//mpc:noalloc
func lastSample(samples []float64) float64 {
	for i := len(samples) - 1; i >= 0; i-- {
		if samples[i] > 0 {
			return samples[i]
		}
	}
	return 0
}
