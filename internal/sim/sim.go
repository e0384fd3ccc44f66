// Package sim is the trace-driven playback simulator: it executes the chunk
// download process of Sec 3.1 — Eq. (1) timing, Eq. (2) average download
// throughput, Eq. (3) buffer evolution and Eq. (4) buffer-full waiting —
// against a throughput trace, invoking a Controller at every chunk boundary
// exactly as the modified dash.js player does (Sec 6: sequential downloads,
// decisions at chunk starts). It produces the per-chunk session log that the
// QoE metric and all evaluation figures are computed from.
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

// Run plays the whole video over tr, asking ctrl for every chunk's level and
// pred for throughput forecasts. It returns the complete session log.
func Run(m *model.Manifest, tr *trace.Trace, ctrl abr.Controller, pred predictor.Predictor, cfg Config) (*model.SessionResult, error) {
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
		t        float64 // session clock, seconds
		buffer   float64 // B_k
		prev     = -1
		rebufTot float64 // cumulative stall, drives AbandonRebuffer
	)
	for k := 0; k < chunks; k++ {
		if ta, ok := pred.(predictor.TimeAware); ok {
			ta.SetTime(t)
		}
		forecast := pred.Predict(cfg.Horizon)
		var lower []float64
		if lb, ok := pred.(predictor.LowerBounder); ok {
			lower = lb.LowerBound(cfg.Horizon)
		}
		st := abr.State{
			Chunk:    k,
			Buffer:   buffer,
			Prev:     prev,
			Time:     t,
			Forecast: forecast,
			Lower:    lower,
			Startup:  k == 0 && cfg.Startup == StartupController,
		}
		decStart := time.Now() //lint:allow nodeterminism solver wall-time measurement for obs only; never feeds the decision
		dec := ctrl.Decide(st)
		solverWall := time.Since(decStart) //lint:allow nodeterminism solver wall-time measurement for obs only; never feeds the decision
		level := m.Ladder.Clamp(dec.Level)

		size := m.ChunkSize(k, level)
		dl := tr.DownloadTime(t, size)
		if math.IsInf(dl, 1) {
			return nil, fmt.Errorf("sim: trace %q has zero throughput forever at t=%.1fs", tr.Name, t)
		}
		throughput := size / dl

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

		pred.Observe(throughput)
		var predicted float64
		if len(forecast) > 0 {
			predicted = forecast[0]
		}
		res.Chunks = append(res.Chunks, model.ChunkRecord{
			Index:        k,
			Level:        level,
			Bitrate:      m.Ladder[level],
			SizeKbits:    size,
			StartTime:    t,
			DownloadTime: dl,
			Throughput:   throughput,
			BufferBefore: buffer,
			BufferAfter:  next,
			Rebuffer:     rebuffer,
			Wait:         wait,
			Predicted:    predicted,
			DecisionTime: solverWall.Seconds(),
		})
		if cfg.Obs.Enabled() {
			cfg.Obs.Decision(obs.DecisionEvent{
				Algorithm:     res.Algorithm,
				Chunk:         k,
				Time:          t,
				Buffer:        buffer,
				Prev:          prev,
				Predicted:     predicted,
				Candidates:    m.Ladder,
				Level:         level,
				Bitrate:       m.Ladder[level],
				SolverWall:    solverWall,
				DownloadStart: t,
				DownloadDur:   dl,
				Actual:        throughput,
				SizeKbits:     size,
				Rebuffer:      rebuffer,
				Wait:          wait,
				BufferAfter:   next,
			})
		}

		t += dl + wait
		buffer = next
		prev = level

		rebufTot += rebuffer
		if cfg.AbandonRebuffer > 0 && rebufTot >= cfg.AbandonRebuffer {
			break
		}
	}
	return res, nil
}
