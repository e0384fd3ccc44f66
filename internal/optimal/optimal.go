// Package optimal computes the offline-optimal QoE(OPT) used to normalize
// every result in Sec 7: the maximum Eq. (5) QoE attainable with perfect
// knowledge of the whole throughput trace. The paper solves this with
// CPLEX after relaxing bitrates to a continuous range (footnote 6); we
// solve the same relaxation by dynamic programming over the exact buffer
// and timing dynamics, quantizing time and buffer onto grids and pruning
// dominated states. At the same trace position (time bin), state A
// dominates state B when A has at least as much buffer and A's QoE lead
// covers the worst-case extra switching penalty of adopting A's future plan
// from B's previous rate, λ·|q(prevA) − q(prevB)| (by the triangle
// inequality). States with no previous chunk only dominate each other.
//
// Solve and SolvePlan also cut, by branch and bound, every state that
// cannot reach a known plan's value. The incumbent lb is the exact Eq. (5)
// value of a feasible plan, found by a narrow beam pass of the same
// kernel. When λ ≥ 0 and µ ≥ 0 a chunk gains at most qMax, the best
// quality, so a state after chunk c can end at most (N−c−1)·qMax above its
// value; a candidate whose value plus that completion bound falls below
// lb, less a margin far above the summation's rounding, is dropped before
// deduplication. The bound is the same for every state of a chunk, so the
// cut is monotone in value, and every state that wins a deduplication or
// dominates another has at least the loser's value: a cut state only ever
// decides the fate of states that are cut too. The optimal path is never
// cut, and the answer, its plan and its ties are the uncut program's bit
// for bit whenever that optimum reaches lb. Since dominance is
// approximate, it might not; so when the cut run's best ends below lb, or
// a frontier empties, or a NaN value turns up, the program is run again
// uncut. A negative or NaN λ or µ disables the cut.
package optimal

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mpcdash/internal/model"
	"mpcdash/internal/trace"
)

// Solver configures the offline optimum computation.
type Solver struct {
	Manifest  *model.Manifest
	Weights   model.Weights
	Quality   model.QualityFunc
	BufferMax float64

	// TimeBin and BufferBin are the quantization grids in seconds.
	// NewSolver sets 1 and 1; zero or less falls back to 0.5. Finer grids
	// tighten the approximation at quadratic cost.
	TimeBin   float64
	BufferBin float64

	// DenseLevels > 0 replaces the manifest ladder with that many rates
	// uniform in [R_min, R_max] — the paper's continuous-bitrate
	// relaxation; NewSolver sets 11. Zero keeps the discrete ladder,
	// giving the exact discrete offline optimum. Solve panics on more than
	// 65535 rates, which overflow its state key.
	DenseLevels int

	// Startup-delay search grid: NewSolver sets 1 s steps up to BufferMax,
	// and zero or less falls back to the same.
	TsStep float64
	TsMax  float64
}

// NewSolver returns a Solver with the paper-comparable defaults.
func NewSolver(m *model.Manifest, w model.Weights, q model.QualityFunc, bufferMax float64) (*Solver, error) {
	if m == nil {
		return nil, fmt.Errorf("optimal: nil manifest")
	}
	if bufferMax <= 0 {
		return nil, fmt.Errorf("optimal: BufferMax must be positive, got %v", bufferMax)
	}
	if q == nil {
		q = model.QIdentity
	}
	return &Solver{
		Manifest:    m,
		Weights:     w,
		Quality:     q,
		BufferMax:   bufferMax,
		TimeBin:     1,
		BufferBin:   1,
		DenseLevels: 11,
		TsStep:      1,
		TsMax:       bufferMax,
	}, nil
}

// Solve returns QoE(OPT) for the trace: the best achievable Eq. (5) value
// over all bitrate plans and startup delays.
func (s *Solver) Solve(tr *trace.Trace) float64 {
	return value(s.solve(tr, s.incumbent(tr), nil))
}

// actions returns the rate set the optimum may choose from.
func (s *Solver) actions() []float64 {
	if s.DenseLevels <= 0 {
		return append([]float64(nil), s.Manifest.Ladder...)
	}
	return model.UniformLadder(s.DenseLevels, s.Manifest.Ladder.Min(), s.Manifest.Ladder.Max())
}

// state is one DP state: the exact dynamics and accumulated value under a
// packed (tBin, prev, bBin) dedup key. Bins are only keys, so quantization
// error does not accumulate across chunks.
type state struct {
	key  uint64
	val  float64
	t    float64
	buf  float64
	from int32 // index of the predecessor in the previous chunk's frontier
}

// packKey packs a time bin, the previous action (len(actions) = "none")
// and a buffer bin; the time bin is the top half, so sorting by key>>32
// groups a trace position.
func packKey(tBin int32, prev int, bBin int16) uint64 {
	return uint64(uint32(tBin))<<32 | uint64(prev)<<16 | uint64(uint16(bBin))
}

func (n *state) prev() int { return int(n.key >> 16 & 0xffff) }

// better orders states totally — by value, then buffer, then earlier time —
// so frontier updates are independent of visiting order and the solver is
// bit-for-bit deterministic.
func (n *state) better(o *state) bool {
	if n.val != o.val { //lint:allow floateq deliberate total order for bit-stable frontier updates
		return n.val > o.val
	}
	if n.buf != o.buf { //lint:allow floateq deliberate total order for bit-stable frontier updates
		return n.buf > o.buf
	}
	return n.t < o.t
}

// value returns the best value in a final frontier, or −Inf if it has
// none.
func value(final []state) float64 {
	if b := best(final); b >= 0 {
		return final[b].val
	}
	return math.Inf(-1)
}

// best returns the index of the first highest-valued state, or -1.
func best(frontier []state) int {
	b, v := -1, math.Inf(-1)
	for i := range frontier {
		if frontier[i].val > v {
			b, v = i, frontier[i].val
		}
	}
	return b
}

// kernel holds the dynamic program's reusable buffers.
type kernel struct {
	next  []state
	index []int32   // open-addressed over next: 1 + position, 0 = empty
	shift uint      // 64 - log2(len(index))
	gap   []float64 // gap[p*levels+q] = λ·|q(p) − q(q)|, the prune margin
	kept  []float64 // per previous action: best kept value in the tBin group
	heads []int32   // per time-bin bucket: next unplaced position
	ends  []int32   // per time-bin bucket: end of its range in next
}

// beamWidth is how many of each chunk's best-valued states the
// incumbent's beam pass keeps.
const beamWidth = 32

// incumbent returns the exact Eq. (5) value of a feasible plan, the lower
// bound the dynamic program is cut at, or −Inf when there is none: the
// best final value of a beam pass, the uncut kernel keeping beamWidth
// states per chunk. Bins are only keys, so every state's value is its
// plan's exact value.
func (s *Solver) incumbent(tr *trace.Trace) float64 {
	final, _ := s.run(tr, math.Inf(-1), beamWidth, nil)
	return value(final)
}

// solve returns the final frontier of the dynamic program, cut at the
// feasible value lb. When the cut run cannot vouch for its answer, it is
// discarded and the program runs again uncut; record then sees the uncut
// run's frontiers after the cut run's, under the same chunk indexes.
func (s *Solver) solve(tr *trace.Trace, lb float64, record func(int, []state)) []state {
	if final, ok := s.run(tr, lb, 0, record); ok {
		return final
	}
	final, _ := s.run(tr, math.Inf(-1), 0, record)
	return final
}

// run runs the dynamic program and returns the final frontier. A non-nil
// record sees the initial frontier as chunk 0 and then chunk c's pruned
// frontier as c+1; a state's from indexes the frontier recorded before it.
// A positive width keeps only that many of each pruned frontier's
// best-valued states, which makes run a beam search.
//
// A finite lb cuts, as the package comment sets out, every candidate whose
// value plus the completion bound (N−c−1)·qMax falls below lb less a
// rounding margin; ok then reports whether the answer is the uncut one: it
// is false when the run ends below lb or empty, or met a NaN value, which
// orders nothing. With a negative or NaN λ or µ, or lb = −Inf, run is the
// uncut kernel and ok is true.
func (s *Solver) run(tr *trace.Trace, lb float64, width int, record func(int, []state)) ([]state, bool) {
	actions := s.actions()
	noPrev := len(actions)
	if noPrev >= 1<<16 {
		panic(fmt.Sprintf("optimal: %d rates exceed the state key's 16-bit action field", noPrev))
	}
	timeBin := positiveOr(s.TimeBin, 0.5)
	bufBin := positiveOr(s.BufferBin, 0.5)
	tsStep := positiveOr(s.TsStep, 1)
	tsMax := positiveOr(s.TsMax, s.BufferMax)
	maxB := int16(math.Round(s.BufferMax / bufBin))
	quantB := func(b float64) int16 {
		bin := int16(math.Round(b / bufBin))
		if bin > maxB {
			bin = maxB
		}
		if bin < 0 {
			bin = 0
		}
		return bin
	}

	qOf := make([]float64, noPrev)
	for i, r := range actions {
		qOf[i] = s.Quality(r)
	}
	qMax := math.Inf(-1)
	for _, q := range qOf {
		qMax = max(qMax, q) // NaN if any quality is
	}
	cutting := s.Weights.Lambda >= 0 && s.Weights.Mu >= 0 && finite(lb) && finite(qMax)
	cut, ordered := math.Inf(-1), true
	if cutting {
		// A state near the cut has partial sums within N·|qMax| of lb.
		cut = lb - 1e-6*(math.Abs(lb)+float64(s.Manifest.ChunkCount)*math.Abs(qMax)+1)
	}
	k := kernel{gap: make([]float64, noPrev*noPrev), kept: make([]float64, noPrev+1)}
	for p := range qOf {
		for q := range qOf {
			k.gap[p*noPrev+q] = s.Weights.Lambda * math.Abs(qOf[p]-qOf[q])
		}
	}

	k.reset(int(tsMax/tsStep) + 2)
	for ts := 0.0; ts <= tsMax+1e-9; ts += tsStep {
		k.insert(state{key: packKey(0, noPrev, quantB(ts)), val: -s.Weights.MuS * ts, buf: ts, from: -1})
	}
	frontier := slices.Clone(k.next)
	if record != nil {
		record(0, frontier)
	}

	sizes, dls := make([]float64, noPrev), make([]float64, noPrev)
	for c := 0; c < s.Manifest.ChunkCount; c++ {
		mult := s.Manifest.SizeMultiplier(c)
		for a, rate := range actions {
			sizes[a] = s.Manifest.ChunkDuration * rate * mult
		}
		// rest bounds the gains after this chunk; it stays 0 uncut, where
		// only a NaN value fails the test below.
		rest := 0.0
		if cutting {
			rest = float64(s.Manifest.ChunkCount-c-1) * qMax
		}
		k.reset(len(frontier) * noPrev)
		for i := range frontier {
			st := &frontier[i]
			prev := st.prev()
			// Without a previous level Gain ignores qp, so any in-range
			// quality serves.
			qp, switched := qOf[min(prev, noPrev-1)], prev != noPrev
			tr.At(st.t).DownloadTimes(sizes, dls)
			for a, dl := range dls {
				if math.IsInf(dl, 1) {
					continue
				}
				rebuffer, wait, nb := model.Step(st.buf, dl, s.Manifest.ChunkDuration, s.BufferMax)
				val := st.val + s.Weights.Gain(qOf[a], qp, switched, rebuffer)
				if !(val+rest >= cut) {
					if val+rest < cut {
						continue
					}
					ordered = false // NaN
				}
				nt := st.t + dl + wait
				k.insert(state{
					key:  packKey(int32(math.Round(nt/timeBin)), a, quantB(nb)),
					val:  val,
					t:    nt,
					buf:  nb,
					from: int32(i),
				})
			}
		}
		frontier = k.prune(noPrev, frontier)
		if width > 0 && len(frontier) > width {
			slices.SortStableFunc(frontier, func(a, b state) int { return cmp.Compare(b.val, a.val) })
			frontier = frontier[:width]
		}
		if record != nil {
			record(c+1, frontier)
		}
		if cutting && len(frontier) == 0 {
			return nil, false
		}
	}
	if !cutting {
		return frontier, true
	}
	b := best(frontier)
	return frontier, ordered && b >= 0 && frontier[b].val >= lb
}

// finite reports whether v is neither infinite nor NaN.
func finite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// positiveOr returns v, or fallback if v is not positive.
func positiveOr(v, fallback float64) float64 {
	if v <= 0 {
		return fallback
	}
	return v
}

// reset empties next and sizes the index for up to n distinct keys at a
// load factor of at most one half.
func (k *kernel) reset(n int) {
	k.next = k.next[:0]
	size, bits := 16, uint(4)
	for size < 2*n {
		size, bits = size*2, bits+1
	}
	if cap(k.index) < size {
		k.index = make([]int32, size)
	} else {
		k.index = k.index[:size]
		clear(k.index)
	}
	k.shift = 64 - bits
}

// insert adds n to next, or replaces the state with the same key if n is
// better.
func (k *kernel) insert(n state) {
	mask := len(k.index) - 1
	for h := int((n.key * 0x9e3779b97f4a7c15) >> k.shift); ; h = (h + 1) & mask {
		slot := k.index[h]
		if slot == 0 {
			k.next = append(k.next, n)
			k.index[h] = int32(len(k.next))
			return
		}
		if old := &k.next[slot-1]; old.key == n.key {
			if n.better(old) {
				*old = n
			}
			return
		}
	}
}

// prune drops dominated states from next and returns the rest, written
// over buf. Within a tBin group, ordered by buffer descending, a state can
// only be dominated by a kept state before it. The best kept value per
// previous action decides that exactly, since fl(x − v) is monotone in x:
// some kept state clears the gap iff the best one with the same previous
// action does. The small exact-time spread within a bin is treated as
// equal, an approximation inherent to the binning.
func (k *kernel) prune(noPrev int, buf []state) []state {
	next := k.next
	k.order()
	out := buf[:0]
	for g := 0; g < len(next); {
		group := next[g].key >> 32
		for p := range k.kept {
			k.kept[p] = math.Inf(-1)
		}
		for ; g < len(next) && next[g].key>>32 == group; g++ {
			e := &next[g]
			if ep := e.prev(); !k.dominated(e.val, ep, noPrev) {
				out = append(out, *e)
				k.kept[ep] = max(k.kept[ep], e.val)
			}
		}
	}
	return out
}

// order sorts next by time bin, then buffer and value descending, then
// previous action and time. insert left one state per key, and the key's
// buffer bin is a function of the buffer, so no two states tie: the order
// is total and any sort reaches the same sequence. States are counted into
// buckets of consecutive time bins, permuted into place by cycle-leader
// swaps, and each bucket sorted alone. Buckets are single bins unless the
// bins span more than len(next), when 2^shift adjacent bins share one.
func (k *kernel) order() {
	next := k.next
	if len(next) == 0 {
		return
	}
	lo, hi := next[0].key>>32, next[0].key>>32
	for i := range next {
		b := next[i].key >> 32
		lo, hi = min(lo, b), max(hi, b)
	}
	var shift uint
	for (hi-lo)>>shift >= uint64(len(next)) {
		shift++
	}
	n := int((hi-lo)>>shift) + 1
	if cap(k.ends) < n {
		c := max(n, 2*cap(k.ends)) // the span grows with the chunk count
		k.heads, k.ends = make([]int32, c), make([]int32, c)
	}
	heads, ends := k.heads[:n], k.ends[:n]
	clear(ends)
	for i := range next {
		ends[(next[i].key>>32-lo)>>shift]++
	}
	var at int32
	for b := range ends {
		heads[b] = at
		at += ends[b]
		ends[b] = at
	}
	for b := range heads {
		for heads[b] < ends[b] {
			d := (next[heads[b]].key>>32 - lo) >> shift
			next[heads[b]], next[heads[d]] = next[heads[d]], next[heads[b]]
			heads[d]++
		}
	}
	from := int32(0)
	for _, to := range ends {
		if to-from > 1 {
			slices.SortFunc(next[from:to], bucketOrder)
		}
		from = to
	}
}

// bucketOrder is order's comparison within one bucket. Values are finite,
// since unreachable downloads are never inserted.
func bucketOrder(a, b state) int {
	if ta, tb := a.key>>32, b.key>>32; ta != tb {
		return cmp.Compare(ta, tb)
	}
	switch {
	case a.buf > b.buf:
		return -1
	case a.buf < b.buf:
		return 1
	case a.val > b.val:
		return -1
	case a.val < b.val:
		return 1
	}
	if c := cmp.Compare(a.prev(), b.prev()); c != 0 {
		return c
	}
	switch {
	case a.t < b.t:
		return -1
	case a.t > b.t:
		return 1
	}
	return 0
}

// dominated reports whether a kept state of the current group dominates a
// state of value v and previous action ep.
func (k *kernel) dominated(v float64, ep, noPrev int) bool {
	for p, kv := range k.kept {
		var gap float64
		if p != ep {
			if p == noPrev || ep == noPrev {
				continue // "no previous chunk" is never interchangeable
			}
			gap = k.gap[p*noPrev+ep]
		}
		if kv-v >= gap {
			return true
		}
	}
	return false
}
