package obs

import "mpcdash/internal/model"

// DecisionEvent is one controller step with everything needed to explain
// it after the fact: the chunk's record (what the controller saw and chose,
// its wall-clock cost and how the download went) plus the controller, the
// session, the previous level and the candidates. It is the structured
// analogue of the paper's Sec 6 player log. Times are media-seconds since
// session start except DecisionTime, the real wall-clock cost of the
// decision — the quantity the FastMPC table exists to shrink.
type DecisionEvent struct {
	Algorithm  string    // controller name
	Session    int       // session index when many sessions share a sink (0 for single runs)
	Prev       int       // previous level, -1 before the first chunk
	Candidates []float64 // ladder bitrates the controller chose among, kbps
	model.ChunkRecord
}

// Sink receives decision events. Implementations must be safe for
// concurrent use: the runner fans sessions out across workers that share
// one sink.
type Sink interface {
	// Decision is called once per controller step, after the chunk the
	// decision produced has finished downloading.
	Decision(DecisionEvent)
	// Close flushes any buffered output. The sink must not be used after
	// Close.
	Close() error
}

// Standard session metric names. They are exported so dashboards, tests
// and documentation agree on the spelling.
const (
	MetricDownloadSeconds = "mpcdash_download_seconds"
	MetricThroughputKbps  = "mpcdash_chunk_throughput_kbps"
	MetricDecisionSeconds = "mpcdash_decision_seconds"
	MetricRebufferSeconds = "mpcdash_rebuffer_seconds"
	MetricChunksTotal     = "mpcdash_chunks_total"
	MetricRebufferEvents  = "mpcdash_rebuffer_events_total"
	MetricRetriesTotal    = "mpcdash_retries_total"
	MetricResumesTotal    = "mpcdash_resumes_total"
	MetricFallbacksTotal  = "mpcdash_fallbacks_total"
	MetricBufferSeconds   = "mpcdash_buffer_seconds"
	MetricPredictedKbps   = "mpcdash_predicted_kbps"
)

// Recorder fans one session's decision events into a metrics registry
// and/or a trace sink. A nil *Recorder is the disabled layer: every
// method is a no-op behind a single pointer test, so instrumented code
// pays nothing when observability is off (benchmarked in
// TestObsOverheadBudget at the repo root).
type Recorder struct {
	reg     *Registry
	sink    Sink
	session int

	download   *Histogram
	throughput *Histogram
	decision   *Histogram
	rebuffer   *Histogram
	chunks     *Counter
	rebufEvts  *Counter
	retries    *Counter
	resumes    *Counter
	fallbacks  *Counter
	buffer     *Gauge
	predicted  *Gauge
}

// NewRecorder wires a recorder to a registry (may be nil: no metrics) and
// a sink (may be nil: no tracing). NewRecorder(nil, nil) is a valid
// "nil-sink" recorder that drops everything; it is distinct from a nil
// *Recorder only in that callers can hold it unconditionally.
func NewRecorder(reg *Registry, sink Sink) *Recorder {
	r := &Recorder{reg: reg, sink: sink}
	if reg != nil {
		r.download = reg.Histogram(MetricDownloadSeconds, "Per-chunk download latency in media seconds.", DefTimeBuckets)
		r.throughput = reg.Histogram(MetricThroughputKbps, "Realized per-chunk download throughput in kbps.", DefKbpsBuckets)
		r.decision = reg.Histogram(MetricDecisionSeconds, "Controller wall-clock time per decision in seconds.", DefTimeBuckets)
		r.rebuffer = reg.Histogram(MetricRebufferSeconds, "Stall duration per rebuffering chunk in media seconds.", DefTimeBuckets)
		r.chunks = reg.Counter(MetricChunksTotal, "Chunks downloaded.")
		r.rebufEvts = reg.Counter(MetricRebufferEvents, "Chunks whose download stalled playback.")
		r.retries = reg.Counter(MetricRetriesTotal, "Extra download attempts beyond each chunk's first.")
		r.resumes = reg.Counter(MetricResumesTotal, "Attempts that resumed a truncated body via HTTP Range.")
		r.fallbacks = reg.Counter(MetricFallbacksTotal, "Chunks served at the lowest level after exhausting retries.")
		r.buffer = reg.Gauge(MetricBufferSeconds, "Most recent post-chunk buffer level in media seconds.")
		r.predicted = reg.Gauge(MetricPredictedKbps, "Most recent first-step throughput forecast in kbps.")
	}
	return r
}

// Registry returns the registry the recorder writes metrics to, or nil.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// WithSession returns a shallow copy of the recorder that stamps the
// given session index on every event, for fan-out over shared sinks. It
// is nil-safe.
func (r *Recorder) WithSession(id int) *Recorder {
	if r == nil {
		return nil
	}
	c := *r
	c.session = id
	return &c
}

// Enabled reports whether recording does anything at all; hot paths may
// use it to skip assembling an event.
func (r *Recorder) Enabled() bool {
	return r != nil && (r.reg != nil || r.sink != nil)
}

// Decision records one controller step: histogram/counter updates when a
// registry is attached, then the full event to the sink when one is
// attached. Safe on a nil receiver.
func (r *Recorder) Decision(ev DecisionEvent) {
	if r == nil {
		return
	}
	if r.reg != nil {
		r.download.Observe(ev.DownloadTime)
		r.throughput.Observe(ev.Throughput)
		r.decision.Observe(ev.DecisionTime)
		r.chunks.Inc()
		if ev.Rebuffer > 0 {
			r.rebuffer.Observe(ev.Rebuffer)
			r.rebufEvts.Inc()
		}
		if ev.Retries > 0 {
			r.retries.Add(uint64(ev.Retries))
		}
		if ev.Resumes > 0 {
			r.resumes.Add(uint64(ev.Resumes))
		}
		if ev.Fallback {
			r.fallbacks.Inc()
		}
		r.buffer.Set(ev.BufferAfter)
		r.predicted.Set(ev.Predicted)
	}
	if r.sink != nil {
		if ev.Session == 0 {
			ev.Session = r.session
		}
		r.sink.Decision(ev)
	}
}

// Close flushes the sink, if any. Safe on a nil receiver.
func (r *Recorder) Close() error {
	if r == nil || r.sink == nil {
		return nil
	}
	return r.sink.Close()
}

// ChunkEvent derives the decision event of one finished chunk from its
// record: the controller saw prev as the previous level and chose among
// candidates (nil when they were not recorded). It is the one mapping from
// the session log to events, used live by the player loop and offline by
// EventsFromSession.
func ChunkEvent(algorithm string, prev int, c *model.ChunkRecord, candidates []float64) DecisionEvent {
	return DecisionEvent{Algorithm: algorithm, Prev: prev, Candidates: candidates, ChunkRecord: *c}
}

// EventsFromSession reconstructs the decision-event stream of a finished
// session from its per-chunk log — the offline path to a trace when no
// live sink was attached (e.g. `mpcdash -trace-out` after a simulator
// run). Candidate sets are not recorded in ChunkRecord and are left nil.
func EventsFromSession(res *model.SessionResult) []DecisionEvent {
	evs := make([]DecisionEvent, len(res.Chunks))
	prev := -1
	for i := range res.Chunks {
		evs[i] = ChunkEvent(res.Algorithm, prev, &res.Chunks[i], nil)
		prev = res.Chunks[i].Level
	}
	return evs
}
