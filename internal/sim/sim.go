// Package sim holds the chunk download process of Sec 3.1 — Eq. (1)
// timing, Eq. (2) average download throughput, Eq. (3) buffer evolution and
// Eq. (4) buffer-full waiting — invoking a Controller at every chunk
// boundary exactly as the modified dash.js player does (Sec 6: sequential
// downloads, decisions at chunk starts). Play runs that process over any
// Link; Run is the trace-driven simulator, Play over a throughput trace.
// The emulator plays the same loop over real HTTP. Both produce the
// per-chunk session log that the QoE metric and all evaluation figures are
// computed from.
package sim

import (
	"fmt"
	"math"
	"time"

	"mpcdash/internal/abr"
	"mpcdash/internal/model"
	"mpcdash/internal/obs"
	"mpcdash/internal/predictor"
	"mpcdash/internal/trace"
)

// StartupPolicy selects how the startup delay Ts (constraint B1 = Ts of the
// formulation in Fig 3) is determined.
type StartupPolicy int

const (
	// StartupFirstChunk sets Ts to the realized download time of the first
	// chunk — "play as soon as the first chunk arrives", the behaviour of
	// the non-MPC players. The first chunk then never rebuffers.
	StartupFirstChunk StartupPolicy = iota
	// StartupController lets the controller choose Ts (the f_stmpc problem);
	// used by the MPC family which optimizes the µs·Ts term explicitly.
	StartupController
	// StartupFixed uses Config.FixedStartup seconds, the Fig 11d sweep.
	StartupFixed
)

// Config parameterizes one simulated session.
type Config struct {
	BufferMax    float64       // B_max seconds (paper: 30)
	Horizon      int           // forecast length requested from the predictor (paper: 5)
	Startup      StartupPolicy // how Ts is chosen
	FixedStartup float64       // Ts when Startup == StartupFixed

	// MaxChunks stops the session after this many chunks (0 plays the
	// whole video). It models viewers who leave before the end — the
	// watch-duration churn of a session population — and because the
	// simulator is strictly sequential, a truncated session is exactly
	// the prefix of the full one.
	MaxChunks int

	// AbandonRebuffer ends the session once cumulative stall time
	// reaches this many seconds (0 disables). The chunk that crossed
	// the threshold is the last one recorded: the viewer gave up during
	// that stall.
	AbandonRebuffer float64

	// Obs receives per-decision events and session metrics. Nil disables
	// observability at the cost of one pointer test per chunk.
	Obs *obs.Recorder
}

// DefaultConfig is the paper's player configuration.
func DefaultConfig() Config {
	return Config{BufferMax: 30, Horizon: 5, Startup: StartupFirstChunk}
}

// Link is the transport one session's chunks travel over. Play owns the
// buffer arithmetic and the decisions; a Link owns time and bytes.
type Link interface {
	// Now reads the session clock in media seconds since the session began.
	Now() float64
	// Fetch downloads chunk c.Index at level c.Level and fills in the
	// Level actually served (a link may degrade it), SizeKbits,
	// DownloadTime in media seconds and any transport fields; Play fills
	// in everything else.
	Fetch(c *model.ChunkRecord) error
	// Wait idles through the buffer-full wait Δt_k of Eq. (4) that follows
	// the last fetched chunk; sec may be zero.
	Wait(sec float64) error
}

// Run plays the whole video over tr, asking ctrl for every chunk's level and
// pred for throughput forecasts. It returns the complete session log.
func Run(m *model.Manifest, tr *trace.Trace, ctrl abr.Controller, pred predictor.Predictor, cfg Config) (*model.SessionResult, error) {
	return Play(m, &traceLink{m: m, tr: tr}, ctrl, pred, cfg)
}

// traceLink is the simulator's Link: a download takes the time the trace
// gives it (Eq. 1–2) and the clock is pure arithmetic.
type traceLink struct {
	m  *model.Manifest
	tr *trace.Trace
	t  float64 // session clock, seconds
	dl float64 // last download's duration, folded into t by Wait
}

func (l *traceLink) Now() float64 { return l.t }

func (l *traceLink) Fetch(c *model.ChunkRecord) error {
	size := l.m.ChunkSize(c.Index, c.Level)
	dl := l.tr.DownloadTime(l.t, size)
	if math.IsInf(dl, 1) {
		return fmt.Errorf("sim: trace %q has zero throughput forever at t=%.1fs", l.tr.Name, l.t)
	}
	l.dl = dl
	c.SizeKbits = size
	c.DownloadTime = dl
	return nil
}

// Wait advances the clock past the download and the wait together:
// t_{k+1} = t_k + d_k/C_k + Δt_k.
func (l *traceLink) Wait(sec float64) error {
	l.t += l.dl + sec
	return nil
}

// Play runs the sequential chunk loop over link: decide, fetch, apply
// Eq. (3)/(4), wait. It returns the session log, or the first error the
// link reports.
func Play(m *model.Manifest, link Link, ctrl abr.Controller, pred predictor.Predictor, cfg Config) (*model.SessionResult, error) {
	if cfg.BufferMax <= 0 {
		return nil, fmt.Errorf("sim: BufferMax must be positive, got %v", cfg.BufferMax)
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 1
	}
	res := &model.SessionResult{
		Algorithm: ctrl.Name(),
		Chunks:    make([]model.ChunkRecord, 0, m.ChunkCount),
	}
	chunks := m.ChunkCount
	if cfg.MaxChunks > 0 && cfg.MaxChunks < chunks {
		chunks = cfg.MaxChunks
	}
	var (
		buffer   float64 // B_k
		prev     = -1
		rebufTot float64 // cumulative stall, drives AbandonRebuffer
	)
	for k := 0; k < chunks; k++ {
		t := link.Now()
		dec, predicted, solverWall := Decide(m.Ladder, ctrl, pred, cfg.Horizon, abr.State{
			Chunk:   k,
			Buffer:  buffer,
			Prev:    prev,
			Time:    t,
			Startup: k == 0 && cfg.Startup == StartupController,
		})
		res.Chunks = append(res.Chunks, model.ChunkRecord{Index: k, Level: dec.Level})
		c := &res.Chunks[k]
		if err := link.Fetch(c); err != nil {
			return nil, err
		}
		dl := c.DownloadTime

		if k == 0 {
			// Establish B1 = Ts per the chosen policy.
			switch cfg.Startup {
			case StartupFirstChunk:
				res.StartupDelay = dl
			case StartupController:
				// Playback cannot begin before the first chunk exists, so
				// the controller's Ts is floored at the realized download
				// time: pre-playback waiting is startup delay, not stall.
				res.StartupDelay = math.Max(dec.Startup, dl)
			case StartupFixed:
				res.StartupDelay = math.Max(0, cfg.FixedStartup)
			}
			buffer = res.StartupDelay
		}

		rebuffer := max(dl-buffer, 0)
		afterDrain := max(buffer-dl, 0) + m.ChunkDuration // (B_k − d/C)+ + L
		wait := max(afterDrain-cfg.BufferMax, 0)          // Δt_k, Eq. (4)
		next := afterDrain - wait                         // B_{k+1}, Eq. (3)

		c.Bitrate = m.Ladder[c.Level]
		c.StartTime = t
		c.Throughput = c.SizeKbits / dl
		c.BufferBefore = buffer
		c.BufferAfter = next
		c.Rebuffer = rebuffer
		c.Wait = wait
		c.Predicted = predicted
		c.DecisionTime = solverWall.Seconds()
		pred.Observe(c.Throughput)
		if cfg.Obs.Enabled() {
			cfg.Obs.Decision(obs.ChunkEvent(res.Algorithm, prev, c, m.Ladder))
		}

		if err := link.Wait(wait); err != nil {
			return nil, err
		}
		buffer = next
		prev = c.Level

		rebufTot += rebuffer
		if cfg.AbandonRebuffer > 0 && rebufTot >= cfg.AbandonRebuffer {
			break
		}
	}
	return res, nil
}

// Decide is the decision step at a chunk start, shared by every player
// loop: it brings a time-aware predictor to st.Time, fills st's forecast
// and, for predictors that track their error, its lower bound, asks ctrl,
// and clamps the chosen level to the ladder. It returns the decision, the
// first-step forecast (0 when there is none) and the wall-clock time ctrl
// took to decide.
func Decide(ladder model.Ladder, ctrl abr.Controller, pred predictor.Predictor, horizon int, st abr.State) (abr.Decision, float64, time.Duration) {
	if ta, ok := pred.(predictor.TimeAware); ok {
		ta.SetTime(st.Time)
	}
	st.Forecast = pred.Predict(horizon)
	if lb, ok := pred.(predictor.LowerBounder); ok {
		st.Lower = lb.LowerBound(horizon)
	}
	decStart := time.Now() //lint:allow nodeterminism solver wall-time measurement for obs only; never feeds the decision
	dec := ctrl.Decide(st)
	solverWall := time.Since(decStart) //lint:allow nodeterminism solver wall-time measurement for obs only; never feeds the decision
	dec.Level = ladder.Clamp(dec.Level)
	var predicted float64
	if len(st.Forecast) > 0 {
		predicted = st.Forecast[0]
	}
	return dec, predicted, solverWall
}
