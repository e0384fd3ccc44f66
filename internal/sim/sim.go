// Package sim holds the chunk download process of Sec 3.1 — Eq. (1)
// timing, Eq. (2) average download throughput, Eq. (3) buffer evolution and
// Eq. (4) buffer-full waiting — invoking a Controller at every chunk
// boundary exactly as the modified dash.js player does (Sec 6: sequential
// downloads, decisions at chunk starts). A Session holds one player's
// process, stepped a chunk at a time; Play steps it over any Link, and Run
// is the trace-driven simulator, Play over a throughput trace.
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
	s, err := NewSession(m, ctrl, pred, cfg)
	if err != nil {
		return nil, err
	}
	for c := s.Next(link.Now()); c != nil; c = s.Next(link.Now()) {
		if err := link.Fetch(c); err != nil {
			return nil, err
		}
		if err := link.Wait(s.Account(c)); err != nil {
			return nil, err
		}
	}
	return s.Result(), nil
}

// Session is one player's chunk loop, stepped by its caller: Next decides
// a chunk, the caller downloads it and fills in its size and download
// time, and Account applies Eq. (3)/(4). Play steps one Session over a
// Link; the multi-player simulator steps several over a shared link.
type Session struct {
	m    *model.Manifest
	ctrl abr.Controller
	pred predictor.Predictor
	cfg  Config
	res  *model.SessionResult

	chunks   int     // chunks to play, after MaxChunks
	buffer   float64 // B_k
	prev     int     // level of the last chunk, -1 before the first
	rebufTot float64 // cumulative stall, drives AbandonRebuffer
	over     bool    // AbandonRebuffer tripped
	ts       float64 // the controller's Ts for chunk 0
}

// NewSession validates cfg and starts a session at chunk 0 with an empty
// buffer.
func NewSession(m *model.Manifest, ctrl abr.Controller, pred predictor.Predictor, cfg Config) (Session, error) {
	if cfg.BufferMax <= 0 {
		return Session{}, fmt.Errorf("sim: BufferMax must be positive, got %v", cfg.BufferMax)
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 1
	}
	chunks := m.ChunkCount
	if cfg.MaxChunks > 0 && cfg.MaxChunks < chunks {
		chunks = cfg.MaxChunks
	}
	return Session{
		m: m, ctrl: ctrl, pred: pred, cfg: cfg, chunks: chunks, prev: -1,
		res: &model.SessionResult{
			Algorithm: ctrl.Name(),
			Chunks:    make([]model.ChunkRecord, 0, m.ChunkCount),
		},
	}, nil
}

// Next decides the next chunk at session time t and returns its record,
// with Index, Level, StartTime, Predicted and DecisionTime set. It brings
// a time-aware predictor to t, fills the state's forecast and, for
// predictors that track their error, its lower bound, asks the controller
// and clamps the chosen level to the ladder. It returns nil once the
// session has ended: every chunk played, MaxChunks reached or
// AbandonRebuffer tripped.
func (s *Session) Next(t float64) *model.ChunkRecord {
	k := len(s.res.Chunks)
	if s.over || k >= s.chunks {
		return nil
	}
	st := abr.State{
		Chunk:   k,
		Buffer:  s.buffer,
		Prev:    s.prev,
		Time:    t,
		Startup: k == 0 && s.cfg.Startup == StartupController,
	}
	if ta, ok := s.pred.(predictor.TimeAware); ok {
		ta.SetTime(t)
	}
	st.Forecast = s.pred.Predict(s.cfg.Horizon)
	if lb, ok := s.pred.(predictor.LowerBounder); ok {
		st.Lower = lb.LowerBound(s.cfg.Horizon)
	}
	decStart := time.Now() //lint:allow nodeterminism solver wall-time measurement for obs only; never feeds the decision
	dec := s.ctrl.Decide(st)
	solverWall := time.Since(decStart) //lint:allow nodeterminism solver wall-time measurement for obs only; never feeds the decision
	s.ts = dec.Startup
	c := model.ChunkRecord{Index: k, Level: s.m.Ladder.Clamp(dec.Level), StartTime: t, DecisionTime: solverWall.Seconds()}
	if len(st.Forecast) > 0 {
		c.Predicted = st.Forecast[0]
	}
	s.res.Chunks = append(s.res.Chunks, c)
	return &s.res.Chunks[k]
}

// Account completes chunk c, the record Next returned, once the caller has
// filled in its Level served, SizeKbits and DownloadTime: it establishes
// the startup delay at chunk 0, applies Eq. (3)/(4), feeds the measured
// throughput to the predictor and the event to cfg.Obs. It returns the
// buffer-full wait Δt_k that must pass before the next Next.
func (s *Session) Account(c *model.ChunkRecord) float64 {
	m, dl := s.m, c.DownloadTime
	if c.Index == 0 {
		// Establish B1 = Ts per the chosen policy.
		switch s.cfg.Startup {
		case StartupFirstChunk:
			s.res.StartupDelay = dl
		case StartupController:
			// Playback cannot begin before the first chunk exists, so
			// the controller's Ts is floored at the realized download
			// time: pre-playback waiting is startup delay, not stall.
			s.res.StartupDelay = math.Max(s.ts, dl)
		case StartupFixed:
			s.res.StartupDelay = math.Max(0, s.cfg.FixedStartup)
		}
		s.buffer = s.res.StartupDelay
	}

	rebuffer, wait, next := model.Step(s.buffer, dl, m.ChunkDuration, s.cfg.BufferMax)

	c.Bitrate = m.Ladder[c.Level]
	c.Throughput = c.SizeKbits / dl
	c.BufferBefore = s.buffer
	c.BufferAfter = next
	c.Rebuffer = rebuffer
	c.Wait = wait
	s.pred.Observe(c.Throughput)
	if s.cfg.Obs.Enabled() {
		s.cfg.Obs.Decision(obs.ChunkEvent(s.res.Algorithm, s.prev, c, m.Ladder))
	}

	s.buffer = next
	s.prev = c.Level
	s.rebufTot += rebuffer
	s.over = s.cfg.AbandonRebuffer > 0 && s.rebufTot >= s.cfg.AbandonRebuffer
	return wait
}

// Result returns the session log: every chunk Account has completed.
func (s *Session) Result() *model.SessionResult { return s.res }
