package fastmpc

import (
	"sync"

	"mpcdash/internal/abr"
	"mpcdash/internal/core"
	"mpcdash/internal/model"
)

// Controller is the online half of FastMPC: a pure table lookup keyed by
// the binned (buffer, previous level, predicted throughput) state. With
// Robust set it queries the table with the forecast's lower bound, giving
// the RobustMPC behaviour at FastMPC cost (Theorem 1 makes the two
// controllers differ only in the throughput input).
//
// The table covers the steady-state problem; pair FastMPC sessions with
// sim.StartupFirstChunk, the policy the dash.js prototype uses.
type Controller struct {
	Table  *CompressedTable
	Robust bool
	Label  string
}

// NewController returns a Factory that resolves the decision table through
// the shared content-addressed registry and shares it across sessions
// (lookups are read-only and safe for concurrent use): factories and
// populations with equal configuration share one build per process.
// Table construction panics on configuration errors, as factories are
// assembled from validated experiment configs.
func NewController(w model.Weights, q model.QualityFunc, bufferMax float64, horizon int, spec *BinSpec, robust bool, label string) abr.Factory {
	var (
		mu sync.Mutex
		// Per-factory manifest memo: skips re-hashing the manifest for
		// every session the factory spawns.
		cache = map[*model.Manifest]*CompressedTable{}
	)
	return func(m *model.Manifest) abr.Controller {
		mu.Lock()
		defer mu.Unlock()
		table, ok := cache[m]
		if !ok {
			opt, err := core.NewOptimizer(m, w, q, bufferMax, horizon)
			if err != nil {
				panic(err)
			}
			sp := DefaultBins(bufferMax, m.Ladder.Max())
			if spec != nil {
				sp = *spec
			}
			table, err = Shared.Table(opt, sp)
			if err != nil {
				panic(err)
			}
			cache[m] = table
		}
		return &Controller{Table: table, Robust: robust, Label: label}
	}
}

// Name implements abr.Controller.
func (c *Controller) Name() string {
	if c.Label != "" {
		return c.Label
	}
	if c.Robust {
		return "RobustFastMPC"
	}
	return "FastMPC"
}

// Decide implements abr.Controller.
func (c *Controller) Decide(s abr.State) abr.Decision {
	var lower float64
	if len(s.Lower) > 0 {
		lower = s.Lower[0]
	}
	return abr.Decision{Level: c.Step(s.Buffer, s.Prev, s.PredictedRate(), lower, 0).Level}
}

// Choice is the outcome of one Step: the level and the throughput inputs
// that decided it.
type Choice struct {
	Level int
	Lower float64 // lower bound the table was queried with; 0 when the forecast was used
	Cap   float64 // limit that bound the query rate; 0 when none did
}

// Step is FastMPC's decision rule for one chunk, shared by Decide and the
// decision service's sessions. The table is queried with the first-step
// throughput forecast or, when Robust, with its lower bound if positive
// (Theorem 1); a positive limit below that rate caps it.
func (c *Controller) Step(buffer float64, prev int, predicted, lower, limit float64) Choice {
	var ch Choice
	rate := predicted
	if c.Robust && lower > 0 {
		ch.Lower, rate = lower, lower
	}
	if limit > 0 && limit < rate {
		ch.Cap, rate = limit, limit
	}
	ch.Level = c.Table.Lookup(buffer, prev, rate)
	return ch
}
