package model

import "math"

// Weights are the non-negative QoE weighting parameters of Eq. (5):
// λ penalizes quality variation, µ rebuffering seconds, µs startup seconds.
type Weights struct {
	Lambda float64 // quality-variation weight λ
	Mu     float64 // rebuffer weight µ (kbps-equivalent per second)
	MuS    float64 // startup-delay weight µs
}

// The three preference sets evaluated in Fig 11b.
var (
	// Balanced is the paper's default: λ=1, µ=µs=3000 — one second of
	// rebuffering costs as much as lowering one chunk by 3000 kbps.
	Balanced = Weights{Lambda: 1, Mu: 3000, MuS: 3000}
	// AvoidInstability triples the switching penalty.
	AvoidInstability = Weights{Lambda: 3, Mu: 3000, MuS: 3000}
	// AvoidRebuffering doubles the rebuffer and startup penalties.
	AvoidRebuffering = Weights{Lambda: 1, Mu: 6000, MuS: 6000}
)

// Step is one chunk download of Eq. (2)–(4): a chunk taking dl seconds,
// entered with b seconds of buffer, adds chunkDur seconds of video to a
// buffer capped at bufMax. It returns the stall (dl − b)+, the buffer-full
// wait Δt_k and the buffer B_{k+1} left afterwards. Every player and
// solver steps through it, so one plan gets the same bits everywhere.
func Step(b, dl, chunkDur, bufMax float64) (rebuffer, wait, next float64) {
	rebuffer = max(dl-b, 0)
	afterDrain := max(b-dl, 0) + chunkDur // (B_k − d/C)+ + L
	wait = max(afterDrain-bufMax, 0)      // Δt_k, Eq. (4)
	return rebuffer, wait, afterDrain - wait
}

// Gain is one chunk's term of Eq. (5): quality q less µ per second of
// rebuffering and, when switched (there is a previous chunk, of quality
// qp), λ·|q − qp|.
func (w Weights) Gain(q, qp float64, switched bool, rebuffer float64) float64 {
	g := q - w.Mu*rebuffer
	if switched {
		g -= w.Lambda * math.Abs(q-qp)
	}
	return g
}

// ChunkRecord is the per-chunk outcome of a playback session, sufficient to
// evaluate Eq. (5) and the per-factor CDFs of Figs 9–10. It is the one
// per-chunk log: its json tags are the export's schema (package export)
// and it is the body of every decision event (package obs).
type ChunkRecord struct {
	Index        int     `json:"index"`           // chunk number, 0-based
	Level        int     `json:"level"`           // chosen ladder level
	Bitrate      float64 `json:"bitrate_kbps"`    // kbps of the chosen level
	SizeKbits    float64 `json:"size_kbits"`      // d_k(R_k)
	StartTime    float64 `json:"start_s"`         // t_k, seconds since session start
	DownloadTime float64 `json:"download_s"`      // d_k(R_k)/C_k seconds
	Throughput   float64 `json:"throughput_kbps"` // C_k, average kbps during the download
	BufferBefore float64 `json:"buffer_before_s"` // B_k seconds
	BufferAfter  float64 `json:"buffer_after_s"`  // B_{k+1} seconds
	Rebuffer     float64 `json:"rebuffer_s"`      // (d_k/C_k - B_k)+ seconds
	Wait         float64 `json:"wait_s"`          // Δt_k seconds (buffer-full wait)
	Predicted    float64 `json:"predicted_kbps"`  // throughput prediction used for this chunk, 0 if none

	// DecisionTime is the controller's wall-clock cost for this chunk's
	// decision in real seconds — the Sec 7.4 overhead quantity, recorded
	// per decision so a regression can be pinned to a specific chunk.
	DecisionTime float64 `json:"decision_s,omitempty"`

	// Transport-health counters, populated by the emulated HTTP client
	// (always zero in the pure simulator, where downloads cannot fail).
	Retries  int  `json:"retries,omitempty"`  // extra download attempts needed beyond the first
	Resumes  int  `json:"resumes,omitempty"`  // attempts that resumed a truncated transfer via HTTP Range
	Fallback bool `json:"fallback,omitempty"` // served at the lowest level after the chosen level's retries ran out

	// Attempts is the per-attempt transport timing of this chunk's
	// download, in session (media) time — one entry per HTTP request the
	// download engine issued, so retry and backoff time is attributable
	// inside the chunk's download span. Nil in the pure simulator.
	Attempts []AttemptRecord `json:"attempts,omitempty"`
}

// AttemptRecord times one HTTP attempt within a chunk download, including
// the backoff that preceded it. Times are media-seconds on the session
// clock, like every other duration in the record.
type AttemptRecord struct {
	Start    float64 `json:"start_s"`             // media-s since session start when the request was issued
	Duration float64 `json:"duration_s"`          // media-s the attempt lasted
	Backoff  float64 `json:"backoff_s,omitempty"` // media-s of backoff wait immediately before Start
	Level    int     `json:"level"`               // ladder level the attempt requested
	Resumed  bool    `json:"resumed,omitempty"`   // the attempt resumed a truncated body via HTTP Range
	Error    string  `json:"error,omitempty"`     // "" when the attempt delivered the remaining body
}

// SessionResult is a completed playback session: the startup delay chosen or
// incurred, and one record per chunk in order.
type SessionResult struct {
	Algorithm    string
	StartupDelay float64 // Ts seconds
	Chunks       []ChunkRecord
}

// Metrics are the aggregate QoE factors of a session. The q-domain means
// depend on the caller's QualityFunc and are not exported.
type Metrics struct {
	AvgBitrate       float64 `json:"avg_bitrate_kbps"`        // mean chosen bitrate, kbps
	AvgQuality       float64 `json:"-"`                       // mean q(R_k)
	AvgQualityChange float64 `json:"-"`                       // mean |q(R_{k+1})-q(R_k)| per transition, kbps
	AvgBitrateChange float64 `json:"avg_bitrate_change_kbps"` // mean |R_{k+1}-R_k| per transition, kbps
	Switches         int     `json:"switches"`                // number of level changes
	RebufferTime     float64 `json:"rebuffer_s"`              // total seconds of stall
	RebufferEvents   int     `json:"rebuffer_events"`         // number of chunks that stalled
	StartupDelay     float64 `json:"startup_delay_s"`         // Ts seconds
	Retries          int     `json:"retries"`                 // total extra download attempts (transport health)
	Resumes          int     `json:"resumes"`                 // total Range-resumed transfers
	Fallbacks        int     `json:"fallbacks"`               // chunks served via lowest-level fallback
}

// ComputeMetrics aggregates the per-factor quality measures of a session.
func (r *SessionResult) ComputeMetrics(q QualityFunc) Metrics {
	var m Metrics
	m.StartupDelay = r.StartupDelay
	n := len(r.Chunks)
	if n == 0 {
		return m
	}
	for i, c := range r.Chunks {
		m.AvgBitrate += c.Bitrate
		m.AvgQuality += q(c.Bitrate)
		m.RebufferTime += c.Rebuffer
		if c.Rebuffer > 0 {
			m.RebufferEvents++
		}
		m.Retries += c.Retries
		m.Resumes += c.Resumes
		if c.Fallback {
			m.Fallbacks++
		}
		if i > 0 {
			prev := r.Chunks[i-1]
			m.AvgQualityChange += math.Abs(q(c.Bitrate) - q(prev.Bitrate))
			m.AvgBitrateChange += math.Abs(c.Bitrate - prev.Bitrate)
			if c.Level != prev.Level {
				m.Switches++
			}
		}
	}
	m.AvgBitrate /= float64(n)
	m.AvgQuality /= float64(n)
	if n > 1 {
		m.AvgQualityChange /= float64(n - 1)
		m.AvgBitrateChange /= float64(n - 1)
	}
	return m
}

// QoE evaluates Eq. (5) for the whole session:
//
//	Σ q(R_k) − λ Σ |q(R_{k+1})−q(R_k)| − µ Σ rebuffer_k − µs·Ts
func (r *SessionResult) QoE(w Weights, q QualityFunc) float64 {
	var total float64
	for i, c := range r.Chunks {
		total += q(c.Bitrate)
		if i > 0 {
			total -= w.Lambda * math.Abs(q(c.Bitrate)-q(r.Chunks[i-1].Bitrate))
		}
		total -= w.Mu * c.Rebuffer
	}
	total -= w.MuS * r.StartupDelay
	return total
}
