package optimal

import (
	"math"
	"slices"

	"mpcdash/internal/trace"
)

// Plan is a reconstructed offline-optimal schedule: the startup delay and
// the per-chunk rate choices (in kbps — the relaxation may choose rates
// between ladder rungs), with the QoE the solver attributes to it.
type Plan struct {
	StartupDelay float64
	Rates        []float64 // chosen kbps per chunk
	QoE          float64
}

// SolvePlan is Solve with plan reconstruction: it runs the same dynamic
// program, keeps every chunk's frontier, and walks the back-pointers from
// the best final state. Its QoE is exactly Solve's. The frontier snapshots
// cost memory, so prefer Solve when only the value is needed (the
// normalizer path).
func (s *Solver) SolvePlan(tr *trace.Trace) Plan {
	return s.solvePlan(tr, s.incumbent(tr))
}

// solvePlan is SolvePlan with the dynamic program cut at lb, as solve.
func (s *Solver) solvePlan(tr *trace.Trace, lb float64) Plan {
	var history [][]state
	final := s.solve(tr, lb, func(c int, f []state) {
		history = append(history[:c], slices.Clone(f)) // an uncut rerun replaces the cut run's
	})
	b := best(final)
	if b < 0 {
		return Plan{QoE: math.Inf(-1)} // infeasible (dead trace)
	}
	plan := Plan{QoE: final[b].val, Rates: make([]float64, s.Manifest.ChunkCount)}
	actions := s.actions()
	for k := s.Manifest.ChunkCount; k > 0; k-- {
		n := history[k][b]
		plan.Rates[k-1] = actions[n.prev()]
		b = int(n.from)
	}
	plan.StartupDelay = history[0][b].buf // an initial state's buffer is its startup delay
	return plan
}
