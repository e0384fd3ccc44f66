// Package core implements the paper's primary contribution: the model
// predictive control approach to bitrate adaptation (Sec 4). An Optimizer
// solves the horizon problem QOE_MAX_STEADY (and the startup variant
// QOE_MAX with the joint startup-delay decision) by exact enumeration with
// branch-and-bound pruning — the discrete program is small enough that
// enumeration is the exact counterpart of the paper's CPLEX solves. The
// MPC controller applies the first decision and recedes the horizon
// (Algorithm 1); RobustMPC feeds the throughput lower bound instead of the
// point estimate, which Theorem 1 proves is the exact max-min solution.
package core

import (
	"fmt"
	"math"

	"mpcdash/internal/model"
)

// minRate floors throughput predictions so a zero forecast yields an
// enormous-but-finite rebuffer penalty instead of a division by zero; the
// optimizer then naturally retreats to the lowest level.
const minRate = 1e-3

// Optimizer solves the horizon QoE maximization exactly.
type Optimizer struct {
	Manifest  *model.Manifest
	Weights   model.Weights
	Quality   model.QualityFunc
	BufferMax float64 // B_max seconds
	Horizon   int     // N, look-ahead chunks (paper: 5)

	// Startup-delay grid for the f_stmpc problem: Ts is searched over
	// multiples of TsStep in [0, TsMax].
	TsStep float64 // default 0.5 s
	TsMax  float64 // default BufferMax

	// DisablePruning turns off the branch-and-bound cut, forcing full
	// enumeration. The result is identical; the flag exists for the
	// ablation benchmark quantifying what the bound saves.
	DisablePruning bool

	// TerminalBufferWeight rewards the buffer level left at the end of the
	// horizon (kbps-equivalent per second). Receding-horizon control is
	// myopic: a plan may spend the whole buffer on quality inside the
	// window and leave nothing for what follows. A small terminal value
	// (e.g. 0.1·µ) counteracts that; 0 reproduces the paper exactly.
	TerminalBufferWeight float64
}

// NewOptimizer returns an optimizer with the paper's defaults for any
// unset tuning field (horizon 5, Ts grid 0.5 s up to BufferMax).
func NewOptimizer(m *model.Manifest, w model.Weights, q model.QualityFunc, bufferMax float64, horizon int) (*Optimizer, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil manifest")
	}
	if q == nil {
		q = model.QIdentity
	}
	if bufferMax <= 0 {
		return nil, fmt.Errorf("core: BufferMax must be positive, got %v", bufferMax)
	}
	if horizon <= 0 {
		horizon = 5
	}
	return &Optimizer{
		Manifest:  m,
		Weights:   w,
		Quality:   q,
		BufferMax: bufferMax,
		Horizon:   horizon,
		TsStep:    0.5,
		TsMax:     bufferMax,
	}, nil
}

// Plan solves the horizon problem starting at chunk k with buffer B_k,
// previous level prev (−1 if none) and the per-chunk throughput forecast.
// With startup set it also optimizes the startup delay Ts (B_k = Ts,
// objective −µs·Ts). It returns the optimal first level, the chosen Ts
// (0 in steady state) and the achieved horizon QoE.
//
// Plan draws its working memory from a shared pool, so it allocates
// nothing in the steady state and is safe for concurrent use. Callers
// making one decision per chunk should hold a Scratch and use PlanScratch
// for a strictly allocation-free hot path.
//
//mpc:noalloc
func (o *Optimizer) Plan(k int, buffer float64, prev int, forecast []float64, startup bool) (level int, ts float64, qoe float64) {
	s := scratchPool.Get().(*Scratch)
	level, ts, qoe = o.PlanScratch(s, k, buffer, prev, forecast, startup)
	scratchPool.Put(s)
	return level, ts, qoe
}

// PlanScratch is Plan solving into caller-owned working memory: with a
// reused Scratch the steady-state decision performs zero heap allocations.
// The Scratch must not be shared between concurrent solves. A nil Scratch
// delegates to the pooled Plan entry point so the hot path itself never
// constructs one.
//
//mpc:noalloc
func (o *Optimizer) PlanScratch(s *Scratch, k int, buffer float64, prev int, forecast []float64, startup bool) (level int, ts float64, qoe float64) {
	if s == nil {
		// Plan always passes a pooled non-nil Scratch back in, so this
		// cannot recurse.
		return o.Plan(k, buffer, prev, forecast, startup)
	}
	steps := o.Horizon
	if rem := o.Manifest.ChunkCount - k; rem < steps {
		steps = rem
	}
	if steps <= 0 {
		return 0, 0, 0
	}
	levels := o.Manifest.Levels()
	// Lookup-table callers clamp an out-of-ladder previous level; the exact
	// solver must agree rather than index out of range.
	if prev >= levels {
		prev = levels - 1
	}
	s.grow(steps, levels)

	// Hoist the per-level quality out of the enumeration: the DFS visits
	// O(levels^steps) nodes, each of which previously paid two QualityFunc
	// calls.
	qMax := math.Inf(-1)
	for lvl := 0; lvl < levels; lvl++ {
		s.qual[lvl] = o.Quality(o.Manifest.Ladder[lvl])
		qMax = max(qMax, s.qual[lvl])
	}

	// Pad or truncate the forecast to exactly steps entries, extending with
	// the final value and flooring at minRate.
	last := minRate
	for i := 0; i < steps; i++ {
		if i < len(forecast) && forecast[i] > 0 {
			last = forecast[i]
		}
		s.rates[i] = max(last, minRate)
	}

	// The download time of every (depth, level) pair depends on neither
	// the buffer nor the path, so it is computed once per solve — for a
	// startup solve, once for the whole Ts grid — instead of at every node.
	for d := 0; d < steps; d++ {
		row := s.dl[d*levels : (d+1)*levels]
		for lvl := range row {
			row[lvl] = o.Manifest.ChunkSize(k+d, lvl) / s.rates[d]
		}
	}

	// optimistic[d] bounds the QoE attainable from depth d onward,
	// including the terminal buffer reward (at most the buffer cap).
	s.optimistic[steps] = o.TerminalBufferWeight * o.BufferMax
	for d := steps - 1; d >= 0; d-- {
		s.optimistic[d] = s.optimistic[d+1] + qMax
	}

	if !startup {
		lvl, q := o.search(s, buffer, prev, steps, levels)
		return lvl, 0, q
	}

	// Startup: grid-search Ts jointly with the bitrate plan. The grid is
	// indexed by integer multiple — accumulating t += step in floating
	// point drifts for non-dyadic steps and can skip the final point.
	bestLevel, bestTs, bestQoE := 0, 0.0, math.Inf(-1)
	step := o.TsStep
	if step <= 0 {
		step = 0.5
	}
	tsMax := o.TsMax
	if tsMax <= 0 {
		tsMax = o.BufferMax
	}
	n := int((tsMax + 1e-9) / step)
	for i := 0; i <= n; i++ {
		t := float64(i) * step
		lvl, q := o.search(s, t, prev, steps, levels)
		q -= o.Weights.MuS * t
		// With µ = µs, trading startup delay for first-chunk stall is QoE
		// neutral; among (near-)ties prefer the larger Ts, i.e. start
		// playback only when it can proceed without an immediate stall.
		if q > bestQoE+1e-6 || (q > bestQoE-1e-6 && t > bestTs) {
			bestLevel, bestTs, bestQoE = lvl, t, q
		}
	}
	return bestLevel, bestTs, bestQoE
}

// search exhaustively maximizes the horizon QoE by depth-first enumeration
// with branch-and-bound: a partial plan is abandoned when even rebuffer-free
// maximum-quality completion cannot beat the incumbent. Ties break toward
// the lower level because ascending iteration only replaces on strict
// improvement. The traversal is iterative over the Scratch's explicit
// stacks — same visit order as the recursive formulation, node for node,
// without the closure and call-frame allocations. The last depth scores
// all of its leaves in one ascending loop rather than pushing a frame per
// leaf; leaf siblings are never cut, so the order and the arithmetic are
// unchanged.
//
//mpc:noalloc
func (o *Optimizer) search(s *Scratch, buffer float64, prev int, steps, levels int) (int, float64) {
	chunkDur := o.Manifest.ChunkDuration
	bufMax := o.BufferMax
	terminal := o.TerminalBufferWeight
	mu, lambda := o.Weights.Mu, o.Weights.Lambda
	prune := !o.DisablePruning
	dlTab, qual, optimistic := s.dl, s.qual, s.optimistic
	buf, acc, prv, choice, next := s.buf, s.acc, s.prv, s.choice, s.next

	bestFirst, bestQoE := 0, math.Inf(-1)
	buf[0], acc[0], prv[0] = buffer, 0, prev
	next[0] = 0
	last := steps - 1
	d := 0
	for d >= 0 {
		if next[d] == 0 && prune && acc[d]+optimistic[d] <= bestQoE {
			d-- // even a perfect completion cannot win
			continue
		}
		if d == last {
			b, a, p := buf[d], acc[d], prv[d]
			for lvl, dl := range dlTab[d*levels : d*levels+levels] {
				rebuffer := max(dl-b, 0)
				afterDrain := max(b-dl, 0) + chunkDur
				wait := max(afterDrain-bufMax, 0)

				gain := qual[lvl] - mu*rebuffer
				if p >= 0 {
					gain -= lambda * math.Abs(qual[lvl]-qual[p])
				}
				if total := a + gain + terminal*(afterDrain-wait); total > bestQoE {
					bestQoE = total
					choice[d] = lvl
					bestFirst = choice[0]
				}
			}
			d-- // every leaf below this node is scored
			continue
		}
		lvl := next[d]
		if lvl == levels {
			d-- // all levels tried at this depth
			continue
		}
		next[d] = lvl + 1

		dl := dlTab[d*levels+lvl]
		rebuffer := max(dl-buf[d], 0)
		afterDrain := max(buf[d]-dl, 0) + chunkDur
		wait := max(afterDrain-bufMax, 0)

		gain := qual[lvl] - mu*rebuffer
		if p := prv[d]; p >= 0 {
			gain -= lambda * math.Abs(qual[lvl]-qual[p])
		}
		choice[d] = lvl
		buf[d+1] = afterDrain - wait
		acc[d+1] = acc[d] + gain
		prv[d+1] = lvl
		next[d+1] = 0
		d++
	}
	return bestFirst, bestQoE
}
