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
	final := s.solve(tr, nil)
	if b := best(final); b >= 0 {
		return final[b].val
	}
	return math.Inf(-1)
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

// solve runs the dynamic program and returns the final frontier. A non-nil
// record sees the initial frontier and then each chunk's pruned frontier;
// a state's from indexes the frontier recorded before it.
func (s *Solver) solve(tr *trace.Trace, record func([]state)) []state {
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
		record(frontier)
	}

	sizes, dls := make([]float64, noPrev), make([]float64, noPrev)
	for c := 0; c < s.Manifest.ChunkCount; c++ {
		mult := s.Manifest.SizeMultiplier(c)
		for a, rate := range actions {
			sizes[a] = s.Manifest.ChunkDuration * rate * mult
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
				nt := st.t + dl + wait
				k.insert(state{
					key:  packKey(int32(math.Round(nt/timeBin)), a, quantB(nb)),
					val:  st.val + s.Weights.Gain(qOf[a], qp, switched, rebuffer),
					t:    nt,
					buf:  nb,
					from: int32(i),
				})
			}
		}
		frontier = k.prune(noPrev, frontier)
		if record != nil {
			record(frontier)
		}
	}
	return frontier
}

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
