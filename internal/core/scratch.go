package core

import "sync"

// Scratch holds the reusable working memory for one Plan solve or one
// FirstLevels row: the padded horizon forecast, the per-solve download-time
// table, the branch-and-bound ladder and flow bounds, the per-level quality
// values and switching costs hoisted out of the enumeration, and the
// explicit depth-first traversal stacks that replace the recursive closure.
// A Scratch grows to fit the largest (horizon, ladder) it has seen and is
// then reused allocation-free; the zero value is ready to use.
//
// A Scratch is owned by exactly one goroutine at a time. Optimizer.Plan
// draws one from an internal pool, so it stays safe for concurrent use;
// hot paths hold their own Scratch for a zero-allocation steady state: the
// MPC controller calls Optimizer.PlanScratch once per chunk, and each
// FastMPC table builder worker calls Optimizer.FirstLevels once per row.
type Scratch struct {
	rates []float64 // horizon forecast, padded and floored at minRate
	dl    []float64 // dl[d*levels+lvl]: ChunkSize(k+d, lvl) / rates[d]
	qual  []float64 // Quality(Ladder[lvl]) per level, computed per solve
	sw    []float64 // sw[p*levels+lvl]: λ·|qual[lvl] − qual[p]|
	caps  []float64 // caps[d]: upper bound on the buffer entering depth d
	bound []float64 // bound[d*(levels+1)+p+1]: U_d(p), see ladderBound
	flow  []float64 // flow[d*(levels+1)+p+1]: F_d(p), see flowBound
	theta float64   // the flow bound's price of buffer
	head  []float64 // one bound row before its switching costs

	// nodes counts the DFS nodes the last solve entered, summed over the
	// whole Ts grid of a startup solve.
	nodes int

	// Iterative DFS stacks, indexed by depth d ∈ [0, steps); the last
	// depth scores its leaves in place and pushes nothing.
	buf    []float64 // buffer level entering depth d
	acc    []float64 // QoE accumulated entering depth d
	prv    []int     // previous level entering depth d (−1 = none)
	choice []int     // level currently taken at depth d
	next   []int     // next level to try at depth d
}

// grow sizes every buffer for a solve of the given depth and ladder size,
// reusing existing capacity.
func (s *Scratch) grow(steps, levels int) {
	s.rates = growFloats(s.rates, steps)
	s.dl = growFloats(s.dl, steps*levels)
	s.qual = growFloats(s.qual, levels)
	s.sw = growFloats(s.sw, levels*levels)
	s.caps = growFloats(s.caps, steps+1)
	s.bound = growFloats(s.bound, (steps+1)*(levels+1))
	s.flow = growFloats(s.flow, (steps+1)*(levels+1))
	s.head = growFloats(s.head, levels)
	s.buf = growFloats(s.buf, steps)
	s.acc = growFloats(s.acc, steps)
	s.prv = growInts(s.prv, steps)
	s.choice = growInts(s.choice, steps)
	s.next = growInts(s.next, steps)
}

func growFloats(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

func growInts(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}

// scratchPool backs the allocation-compatible Plan entry point: callers
// that do not manage a Scratch of their own share pooled ones, so repeated
// Plan calls stay allocation-free in the steady state while remaining safe
// to issue from many goroutines (the table builder's worker fan-out).
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}
