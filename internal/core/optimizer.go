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
	levels := o.Manifest.Levels()
	// Lookup-table callers clamp an out-of-ladder previous level; the exact
	// solver must agree rather than index out of range.
	if prev >= levels {
		prev = levels - 1
	}
	// Any negative previous level means none; the bound tables have one
	// column for it.
	prev = max(prev, -1)

	if !startup {
		steps := o.prepare(s, k, forecast, buffer)
		if steps == 0 {
			return 0, 0, 0
		}
		o.ladderBound(s, buffer, steps, levels)
		lvl, q, _ := o.search(s, buffer, prev, steps, levels, math.Inf(-1))
		return lvl, 0, q
	}

	// Startup: grid-search Ts jointly with the bitrate plan. The grid is
	// indexed by integer multiple — accumulating t += step in floating
	// point drifts for non-dyadic steps and can skip the final point.
	step := o.TsStep
	if step <= 0 {
		step = 0.5
	}
	tsMax := o.TsMax
	if tsMax <= 0 {
		tsMax = o.BufferMax
	}
	n := int((tsMax + 1e-9) / step)
	// One set of bounds serves the whole grid: the largest Ts caps every
	// buffer.
	top := float64(n) * step
	steps := o.prepare(s, k, forecast, top)
	if steps == 0 {
		return 0, 0, 0
	}
	o.ladderBound(s, top, steps, levels)
	bestLevel, bestTs, bestQoE := 0, 0.0, math.Inf(-1)
	for i := 0; i <= n; i++ {
		t := float64(i) * step
		// Past the first point the rule below keeps a Ts only if its QoE
		// beats bestQoE−1e-6, so the search starts from that floor (less a
		// rounding slack); a search that finds nothing above it is a Ts the
		// rule would not have kept.
		lvl, q, found := o.search(s, t, prev, steps, levels, slackBelow(bestQoE-1e-6+o.Weights.MuS*t))
		if !found {
			continue
		}
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

// FirstLevels solves one steady row: for every buffers[i] and every
// previous level p of the ladder it writes to dst[i*levels+p] the first
// level PlanScratch(s, k, buffers[i], p, forecast, false) returns. The
// qualities, download times and flow bound are set up once per call and
// the ladder bound once per buffer, so a table row costs little more than
// its searches. dst must hold len(buffers)·levels entries.
//
//mpc:noalloc
func (o *Optimizer) FirstLevels(s *Scratch, k int, forecast, buffers []float64, dst []int) {
	levels := o.Manifest.Levels()
	top := math.Inf(-1)
	for _, b := range buffers {
		top = max(top, b)
	}
	steps := o.prepare(s, k, forecast, top)
	for i, b := range buffers {
		row := dst[i*levels : (i+1)*levels]
		if steps == 0 {
			clear(row)
			continue
		}
		o.ladderBound(s, b, steps, levels)
		for p := range row {
			row[p], _, _ = o.search(s, b, p, steps, levels, math.Inf(-1))
		}
	}
}

// flowPrice sets the flow bound's price of buffer from the first forecast:
// θ = flowPrice·rate₀/L, capped at µ. Any θ in [0, µ] gives a valid bound;
// of the prices 0.6–2.0, this one entered the fewest nodes over the 50,000
// solves of the default table.
const flowPrice = 1.2

// prepare sizes s and fills what every search at chunk k shares whatever
// its buffer and previous level: the per-level qualities, the padded
// forecast, the download-time table and the flow bound, whose terminal
// term is capped for entering buffers up to top. It resets the node count
// and returns the horizon length, 0 once k is past the video's end.
func (o *Optimizer) prepare(s *Scratch, k int, forecast []float64, top float64) (steps int) {
	steps = o.Horizon
	if rem := o.Manifest.ChunkCount - k; rem < steps {
		steps = rem
	}
	if steps <= 0 {
		return 0
	}
	levels := o.Manifest.Levels()
	s.grow(steps, levels)

	// Hoist the per-level quality out of the enumeration: the DFS visits
	// O(levels^steps) nodes, each of which previously paid two QualityFunc
	// calls.
	for lvl := 0; lvl < levels; lvl++ {
		s.qual[lvl] = o.Quality(o.Manifest.Ladder[lvl])
	}
	// Both bounds charge every (previous, next) switch on every row.
	for p, qp := range s.qual {
		for lvl, q := range s.qual {
			s.sw[p*levels+lvl] = o.Weights.Lambda * math.Abs(q-qp)
		}
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
	// the buffer nor the path, so it is computed once per call — for a
	// startup solve, once for the whole Ts grid; for a row, once for all
	// of its buffers — instead of at every node.
	for d := 0; d < steps; d++ {
		row := s.dl[d*levels : (d+1)*levels]
		for lvl := range row {
			row[lvl] = o.Manifest.ChunkSize(k+d, lvl) / s.rates[d]
		}
	}
	s.nodes = 0
	o.flowBound(s, top, steps, levels)
	return steps
}

// slackBelow is v less a relative slack far above the rounding error of a
// horizon total, so a plan whose computed total exceeds v is never cut
// because its bound was summed in another order.
func slackBelow(v float64) float64 {
	return v - 1e-9*(math.Abs(v)+1)
}

// ladderBound fills s.bound with U_d(p), an upper bound on the QoE any
// completion from depth d after level p can add, for every buffer entering
// depth 0 of at most cap0 seconds:
//
//	U_d(p) = max_l [ q_l − µ·max(dl_d(l) − cap_d, 0) − λ·|q_l − q_p| + U_{d+1}(l) ]
//	U_N    = terminal·cap_N
//
// where cap_d bounds the buffer entering depth d (capChain), and p = −1
// has no switching term. A larger buffer never rebuffers more, so scoring
// each level against cap_d bounds its real gain; the switching cost is
// exact. The bound is summed in another order than a plan's total, which
// slackBelow absorbs.
func (o *Optimizer) ladderBound(s *Scratch, cap0 float64, steps, levels int) {
	mu := o.Weights.Mu
	w := levels + 1 // row width: column p+1 holds U_d(p), p = −1 included
	caps, bound, qual, head := s.caps, s.bound, s.qual, s.head
	o.capChain(s, cap0, steps, levels)
	// A negative weight rewards an empty buffer most: its term is ≤ 0.
	tail := max(o.TerminalBufferWeight*caps[steps], 0)
	for i := steps * w; i < (steps+1)*w; i++ {
		bound[i] = tail
	}
	for d := steps - 1; d >= 0; d-- {
		below := bound[(d+1)*w : (d+2)*w]
		for lvl, dl := range s.dl[d*levels : (d+1)*levels] {
			head[lvl] = qual[lvl] - mu*max(dl-caps[d], 0) + below[lvl+1]
		}
		switchRow(bound[d*w:(d+1)*w], head, s.sw)
	}
}

// capChain fills s.caps: cap_0 = cap0 and cap_{d+1} = max(cap_d − min_l
// dl_d(l), 0) + L, held at B_max plus two ulps of that sum above B_max, an
// upper bound on the buffer entering depth d of any plan whose buffer at
// depth 0 is at most cap0.
func (o *Optimizer) capChain(s *Scratch, cap0 float64, steps, levels int) {
	chunkDur, bufMax := o.Manifest.ChunkDuration, o.BufferMax
	caps := s.caps
	caps[0] = cap0
	for d := 0; d < steps; d++ {
		minDl := math.Inf(1)
		for _, dl := range s.dl[d*levels : (d+1)*levels] {
			minDl = min(minDl, dl)
		}
		c := max(caps[d]-minDl, 0) + chunkDur
		if c > bufMax {
			// model.Step's next buffer, the drained buffer plus L less
			// the wait, can land one ulp of that sum above B_max, so
			// round the cap upward by two.
			c = bufMax + 2*(math.Nextafter(c, math.Inf(1))-c)
		}
		caps[d+1] = c
	}
}

// flowBound fills s.flow and s.theta with the second, buffer-aware bound
// of the search. A completion from depth d, entered with buffer b, that
// downloads the m = N−d remaining chunks ends with a buffer of at most
// b − Σdl + Σrebuffer + m·L and at least min(L, B_max), so it rebuffers at
// least Σdl − b − m·L + min(L, B_max) seconds in total. Pricing that
// rebuffering at any θ ∈ [0, µ] instead of µ bounds the completion's QoE by
// θ·b plus
//
//	F_d(p) = V_d(p) + θ·(m·L − min(L, B_max))
//	V_d(p) = max_l [ q_l − λ·|q_l − q_p| − θ·dl_d(l) + V_{d+1}(l) ]
//	V_N    = max(terminal·cap_N, 0)
//
// with cap_N from the chain of the largest buffer top. Unlike the ladder
// bound it charges a plan for the buffer its downloads drain, which is
// what cuts states whose buffer is well below cap_d. θ = flowPrice·rate₀/L
// capped at µ; where that is not a number in [0, µ], F is +∞ and θ is 0,
// so the flow cut never fires.
func (o *Optimizer) flowBound(s *Scratch, top float64, steps, levels int) {
	mu, chunkDur := o.Weights.Mu, o.Manifest.ChunkDuration
	w := levels + 1
	flow, qual, head := s.flow, s.qual, s.head
	theta := min(mu, flowPrice*s.rates[0]/chunkDur)
	if !(theta >= 0 && theta <= mu) || math.IsInf(theta, 0) {
		s.theta = 0
		for i := range flow {
			flow[i] = math.Inf(1)
		}
		return
	}
	s.theta = theta
	// A weight that is not positive adds at most 0: the buffer never ends
	// negative.
	tail := 0.0
	if o.TerminalBufferWeight > 0 {
		o.capChain(s, top, steps, levels)
		tail = o.TerminalBufferWeight * s.caps[steps]
	}
	for i := steps * w; i < (steps+1)*w; i++ {
		flow[i] = tail
	}
	for d := steps - 1; d >= 0; d-- {
		below := flow[(d+1)*w : (d+2)*w]
		for lvl, dl := range s.dl[d*levels : (d+1)*levels] {
			head[lvl] = qual[lvl] - theta*dl + below[lvl+1]
		}
		switchRow(flow[d*w:(d+1)*w], head, s.sw)
	}
	// Fold each depth's buffer-independent term into its row once V is
	// complete, so the search adds only θ·b.
	lo := min(chunkDur, o.BufferMax)
	for d := 0; d < steps; d++ {
		add := theta * (float64(steps-d)*chunkDur - lo)
		for i := d * w; i < (d+1)*w; i++ {
			flow[i] += add
		}
	}
}

// switchRow fills one bound row from head[l], a level's value before its
// switching cost: row[0] = max_l head[l] (no previous level) and row[p+1] =
// max_l [head[l] − sw[p·levels+l]], with sw the switching costs λ·|q_l − q_p|.
func switchRow(row, head, sw []float64) {
	row[0] = math.Inf(-1)
	for _, h := range head {
		row[0] = max(row[0], h)
	}
	levels := len(head)
	for p := 0; p < levels; p++ {
		u := math.Inf(-1)
		for lvl, c := range sw[p*levels : (p+1)*levels] {
			u = max(u, head[lvl]-c)
		}
		row[p+1] = u
	}
}

// search exhaustively maximizes the horizon QoE by depth-first enumeration
// with branch-and-bound: a partial plan is abandoned when its accumulated
// QoE plus either the ladder bound U_d(prev) (ladderBound) or the flow
// bound F_d(prev) + θ·b (flowBound) cannot beat the incumbent less
// slackBelow's slack. The incumbent starts at floor; with
// no floor (−∞) it starts just below the rollout plan, which follows the
// best level by gain plus bound at every depth, and the DFS re-finds that
// plan or a better one, so the result is the plan it would find from −∞.
// Ties break toward the lower level because ascending iteration only
// replaces on strict improvement. found reports whether any plan beat the
// starting incumbent; if none did, no plan scores above floor. Every
// download, here and in the rollout, steps through model.Step and scores
// through Weights.Gain, so one plan gets the same bits on every path.
//
// The traversal is iterative over the Scratch's explicit stacks — the
// visit order of the recursive formulation without the closure and
// call-frame allocations. The last depth scores all of its leaves in one
// ascending loop rather than pushing a frame per leaf; leaf siblings are
// never cut, so the order and the arithmetic are unchanged. It adds the
// nodes it enters to s.nodes.
//
//mpc:noalloc
func (o *Optimizer) search(s *Scratch, buffer float64, prev int, steps, levels int, floor float64) (first int, qoe float64, found bool) {
	wts, chunkDur, bufMax := o.Weights, o.Manifest.ChunkDuration, o.BufferMax
	terminal := o.TerminalBufferWeight
	prune := !o.DisablePruning
	dlTab, qual, bound, flow, theta := s.dl, s.qual, s.bound, s.flow, s.theta
	buf, acc, prv, choice, next := s.buf, s.acc, s.prv, s.choice, s.next
	w := levels + 1
	last := steps - 1

	bestFirst, bestQoE := 0, floor
	if math.IsInf(floor, -1) {
		if r := slackBelow(o.rollout(s, buffer, prev, steps, levels)); r > bestQoE {
			bestQoE = r // a NaN total leaves no incumbent
		}
	}
	cut := slackBelow(bestQoE)
	nodes := 0
	buf[0], acc[0], prv[0] = buffer, 0, prev
	next[0] = 0
	d := 0
	for d >= 0 {
		if next[d] == 0 {
			nodes++
			a, i := acc[d], d*w+prv[d]+1
			if prune && (a+bound[i] <= cut || a+flow[i]+theta*buf[d] <= cut) {
				d-- // a bound rules out every completion
				continue
			}
		}
		p := prv[d]
		qp := qual[max(p, 0)]
		if d == last {
			b, a := buf[d], acc[d]
			for lvl, dl := range dlTab[d*levels : d*levels+levels] {
				rebuffer, _, after := model.Step(b, dl, chunkDur, bufMax)
				if total := a + wts.Gain(qual[lvl], qp, p >= 0, rebuffer) + terminal*after; total > bestQoE {
					bestQoE, cut, found = total, slackBelow(total), true
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

		rebuffer, _, after := model.Step(buf[d], dlTab[d*levels+lvl], chunkDur, bufMax)
		choice[d] = lvl
		buf[d+1] = after
		acc[d+1] = acc[d] + wts.Gain(qual[lvl], qp, p >= 0, rebuffer)
		prv[d+1] = lvl
		next[d+1] = 0
		d++
	}
	s.nodes += nodes
	return bestFirst, bestQoE, found
}

// rollout returns the total of the plan that takes, at every depth, the
// lowest level maximizing its real gain plus the ladder bound below it,
// summed in the search's order so a leaf scoring that plan gets the same
// value.
func (o *Optimizer) rollout(s *Scratch, b float64, p int, steps, levels int) float64 {
	wts, chunkDur, bufMax := o.Weights, o.Manifest.ChunkDuration, o.BufferMax
	w := levels + 1
	a := 0.0
	for d := 0; d < steps; d++ {
		qp := s.qual[max(p, 0)]
		pick, pickGain, pickBuf, pickVal := 0, 0.0, 0.0, math.Inf(-1)
		for lvl, dl := range s.dl[d*levels : (d+1)*levels] {
			rebuffer, _, after := model.Step(b, dl, chunkDur, bufMax)
			gain := wts.Gain(s.qual[lvl], qp, p >= 0, rebuffer)
			if v := gain + s.bound[(d+1)*w+lvl+1]; v > pickVal {
				pick, pickGain, pickBuf, pickVal = lvl, gain, after, v
			}
		}
		if math.IsInf(pickVal, -1) {
			break // no level scores (NaN or −∞): no incumbent
		}
		if d == steps-1 {
			return a + pickGain + o.TerminalBufferWeight*pickBuf
		}
		a += pickGain
		b, p = pickBuf, pick
	}
	return math.Inf(-1)
}
