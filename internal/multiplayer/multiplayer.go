// Package multiplayer extends the single-player model to the Sec 8
// discussion: several adaptive players share one bottleneck link. The link
// capacity follows a trace and is split equally among players that are
// actively downloading (the standard TCP-fairness approximation); players
// that pause with a full buffer release their share, which is precisely
// the interaction that makes multi-player adaptation unstable and that
// FESTIVE was designed around. The simulator is event-driven in continuous
// time and produces per-player session logs plus cross-player fairness,
// efficiency and stability metrics.
package multiplayer

import (
	"fmt"
	"math"

	"mpcdash/internal/abr"
	"mpcdash/internal/model"
	"mpcdash/internal/predictor"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// Player binds one controller + predictor pair to a session slot.
type Player struct {
	Name       string
	Controller abr.Controller
	Predictor  predictor.Predictor
	// StartOffset delays the player's arrival (seconds), modelling viewers
	// joining at different times.
	StartOffset float64
}

// Config parameterizes the shared-link simulation.
type Config struct {
	BufferMax float64 // per-player buffer cap, seconds
	Horizon   int     // forecast length requested from predictors
}

// Result is the outcome for one player plus the cross-player metrics.
type Result struct {
	Sessions []*model.SessionResult // one per player, in input order

	// Fairness metrics over the overlap period.
	JainIndex   float64 // Jain fairness index of average bitrates
	Utilization float64 // delivered kilobits / link capacity while ≥1 player active
	Instability float64 // mean per-player bitrate switches per chunk
}

// phase of a player's chunk loop.
type phase int

const (
	phaseArriving phase = iota // not yet started
	phaseDeciding              // about to pick the next chunk
	phaseDownload              // transferring
	phaseWaiting               // buffer full, holding off
	phaseDone
)

// state is one player's live simulation state.
type state struct {
	player Player
	phase  phase

	chunk     int
	prev      int
	buffer    float64
	playing   bool
	waitUntil float64

	// current download
	remaining  float64 // kbits left
	size       float64 // total kbits
	dlStart    float64
	dlStall    float64 // stall seconds accumulated during this download
	level      int
	predicted  float64
	bufAtStart float64

	records []model.ChunkRecord
	startup float64
}

// Run simulates all players over the shared link until every player
// finishes its video.
func Run(m *model.Manifest, link *trace.Trace, players []Player, cfg Config) (*Result, error) {
	if cfg.BufferMax <= 0 {
		return nil, fmt.Errorf("multiplayer: BufferMax must be positive, got %v", cfg.BufferMax)
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 5
	}
	if len(players) == 0 {
		return nil, fmt.Errorf("multiplayer: no players")
	}
	if link.MaxRate() <= 0 {
		return nil, fmt.Errorf("multiplayer: link %q is dead", link.Name)
	}

	states := make([]*state, len(players))
	for i, p := range players {
		states[i] = &state{player: p, phase: phaseArriving, prev: -1}
	}

	const dt = 0.05 // integration step, seconds
	now := 0.0
	var deliveredKbits, capacityKbits float64

	for !allDone(states) {
		// Start decisions for players that are due.
		for _, s := range states {
			if s.phase == phaseArriving && now >= s.player.StartOffset {
				s.phase = phaseDeciding
			}
			if s.phase == phaseWaiting && now >= s.waitUntil {
				s.phase = phaseDeciding
			}
			if s.phase == phaseDeciding {
				beginChunk(m, s, now, cfg.Horizon)
			}
		}

		// Count active downloaders and split the link.
		active := 0
		for _, s := range states {
			if s.phase == phaseDownload {
				active++
			}
		}
		rate := link.RateAt(now)
		if active > 0 {
			capacityKbits += rate * dt
		}
		share := 0.0
		if active > 0 {
			share = rate / float64(active)
		}

		// Advance one step: transfer bytes, drain buffers, accrue stalls.
		for _, s := range states {
			if s.phase == phaseDownload {
				got := share * dt
				if got > s.remaining {
					got = s.remaining
				}
				s.remaining -= got
				deliveredKbits += got
			}
			if s.playing && s.phase != phaseDone {
				drain := dt
				if s.buffer < drain {
					stall := drain - s.buffer
					if s.phase == phaseDownload {
						s.dlStall += stall
					}
					s.buffer = 0
				} else {
					s.buffer -= drain
				}
			}
		}
		now += dt

		// Complete downloads.
		for _, s := range states {
			if s.phase == phaseDownload && s.remaining <= 1e-9 {
				finishChunk(m, s, now, cfg)
			}
		}

		if now > 1e6 {
			return nil, fmt.Errorf("multiplayer: simulation did not converge (t=%v)", now)
		}
	}

	res := &Result{Sessions: make([]*model.SessionResult, len(states))}
	var bitrates []float64
	var switches, chunks int
	for i, s := range states {
		sr := &model.SessionResult{
			Algorithm:    s.player.Controller.Name(),
			StartupDelay: s.startup,
			Chunks:       s.records,
		}
		res.Sessions[i] = sr
		met := sr.ComputeMetrics(model.QIdentity)
		bitrates = append(bitrates, met.AvgBitrate)
		switches += met.Switches
		chunks += len(sr.Chunks)
	}
	res.JainIndex = jain(bitrates)
	if capacityKbits > 0 {
		res.Utilization = deliveredKbits / capacityKbits
	}
	if chunks > 0 {
		res.Instability = float64(switches) / float64(chunks)
	}
	return res, nil
}

// beginChunk asks the controller for the next level, through the same
// decision step as the single-player loop, and starts the transfer.
func beginChunk(m *model.Manifest, s *state, now float64, horizon int) {
	dec, predicted, _ := sim.Decide(m.Ladder, s.player.Controller, s.player.Predictor, horizon, abr.State{
		Chunk:  s.chunk,
		Buffer: s.buffer,
		Prev:   s.prev,
		Time:   now,
	})
	s.level = dec.Level
	s.size = m.ChunkSize(s.chunk, s.level)
	s.remaining = s.size
	s.dlStart = now
	s.dlStall = 0
	s.bufAtStart = s.buffer
	s.predicted = predicted
	s.phase = phaseDownload
}

// finishChunk records the completed transfer and schedules what's next.
func finishChunk(m *model.Manifest, s *state, now float64, cfg Config) {
	dl := now - s.dlStart
	throughput := s.size / math.Max(dl, 1e-9)
	s.player.Predictor.Observe(throughput)

	if s.chunk == 0 {
		// Play as soon as the first chunk arrives.
		s.playing = true
		s.startup = dl
	}
	s.buffer += m.ChunkDuration
	wait := math.Max(s.buffer-cfg.BufferMax, 0)
	s.buffer -= wait

	s.records = append(s.records, model.ChunkRecord{
		Index:        s.chunk,
		Level:        s.level,
		Bitrate:      m.Ladder[s.level],
		SizeKbits:    s.size,
		StartTime:    s.dlStart,
		DownloadTime: dl,
		Throughput:   throughput,
		BufferBefore: s.bufAtStart,
		BufferAfter:  s.buffer,
		Rebuffer:     s.dlStall,
		Wait:         wait,
		Predicted:    s.predicted,
	})
	s.prev = s.level
	s.chunk++
	if s.chunk >= m.ChunkCount {
		s.phase = phaseDone
		return
	}
	if wait > 0 {
		s.phase = phaseWaiting
		s.waitUntil = now + wait
		return
	}
	s.phase = phaseDeciding
	beginChunk(m, s, now, cfg.Horizon)
}

func allDone(states []*state) bool {
	for _, s := range states {
		if s.phase != phaseDone {
			return false
		}
	}
	return true
}

// jain computes the Jain fairness index: (Σx)² / (n·Σx²), 1 for perfect
// equality, → 1/n for maximal skew.
func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 { //lint:allow floateq exact-zero divisor guard; epsilon would misclassify tiny allocations
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
