package fleet

import (
	"fmt"
	"math"
	"sync"
)

// This file is the streaming-aggregation layer: per-population statistics
// that stay O(populations) in memory no matter how many sessions a
// scenario launches. Means and variances use Welford's algorithm,
// quantiles a fixed-bin histogram, and the orderedTally at the bottom
// makes the floating-point reduction deterministic despite out-of-order
// worker completion by folding sessions in index order.

// Welford accumulates count/mean/M2 (plus exact extremes) in one pass.
type Welford struct {
	N    int64
	Mean float64
	M2   float64 // sum of squared deviations from the running mean
	Min  float64
	Max  float64
}

// Observe folds one sample in.
func (w *Welford) Observe(x float64) {
	if w.N == 0 {
		w.Min, w.Max = x, x
	} else {
		w.Min = math.Min(w.Min, x)
		w.Max = math.Max(w.Max, x)
	}
	w.N++
	d := x - w.Mean
	w.Mean += d / float64(w.N)
	w.M2 += d * (x - w.Mean)
}

// Variance returns the population variance (0 for fewer than 2 samples).
func (w Welford) Variance() float64 {
	if w.N < 2 {
		return 0
	}
	return w.M2 / float64(w.N)
}

// Std returns the population standard deviation.
func (w Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// Hist is a fixed-bin histogram over [Lo, Hi): Bins equal-width bins plus
// underflow/overflow tails. Quantile estimates are exact to one bin width
// for in-range data, and the layout is fixed at construction.
type Hist struct {
	Lo, Hi float64
	Bins   []int64
	Under  int64 // samples < Lo
	Over   int64 // samples >= Hi
	N      int64
}

// NewHist builds a histogram with the given range and bin count.
func NewHist(lo, hi float64, bins int) *Hist {
	if !(hi > lo) || bins <= 0 {
		panic(fmt.Sprintf("fleet: invalid histogram layout [%v,%v)/%d", lo, hi, bins))
	}
	return &Hist{Lo: lo, Hi: hi, Bins: make([]int64, bins)}
}

// Observe records one sample. NaN samples are dropped.
func (h *Hist) Observe(x float64) {
	if math.IsNaN(x) {
		return
	}
	h.N++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / h.width())
		if i >= len(h.Bins) { // float edge case at the upper bound
			i = len(h.Bins) - 1
		}
		h.Bins[i]++
	}
}

func (h *Hist) width() float64 { return (h.Hi - h.Lo) / float64(len(h.Bins)) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the containing bin. Samples in the underflow (overflow) tail are
// reported as Lo (Hi), so tail quantiles are clamped to the layout range.
// It returns NaN for an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h.N == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank in [0, N]; walk the cumulative counts to the containing bin.
	rank := q * float64(h.N)
	cum := float64(h.Under)
	if rank <= cum {
		return h.Lo
	}
	w := h.width()
	for i, c := range h.Bins {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			frac := (rank - cum) / float64(c)
			return h.Lo + (float64(i)+frac)*w
		}
		cum = next
	}
	return h.Hi
}

// Histogram layouts for the per-population quantile estimates: QoE is
// tracked per watched chunk (so sessions of different lengths are
// comparable) and spans deep-penalty to max-ladder territory; rebuffer
// totals span 0 to two minutes of stall.
const (
	qoeHistLo, qoeHistHi = -6000.0, 4000.0
	qoeHistBins          = 500
	rebufHistLo          = 0.0
	rebufHistHi          = 120.0
	rebufHistBins        = 480
)

// sessionStats is one completed session reduced to the scalars the
// population aggregates are built from — everything a Tally needs, and
// all that survives a session once its log is released.
type sessionStats struct {
	chunks    int
	qoe       float64 // total Eq. (5) QoE of the (possibly truncated) session
	bitrate   float64 // session mean chosen bitrate, kbps
	rebuffer  float64 // total stall seconds
	switches  float64 // level changes
	startup   float64 // Ts seconds
	abandoned bool    // left early because the abandon-rebuffer policy fired
}

// Tally is the per-population aggregate: counters plus
// Welford moments and quantile histograms for the session metrics.
type Tally struct {
	Completed int64
	Abandoned int64
	Chunks    int64

	QoE         Welford // per-session total QoE
	QoEPerChunk Welford
	BitrateKbps Welford
	RebufferSec Welford
	Switches    Welford
	StartupSec  Welford

	QoEHist   *Hist // per-chunk QoE distribution
	RebufHist *Hist // per-session total stall distribution
}

// NewTally returns an empty tally with the standard histogram layouts.
func NewTally() *Tally {
	return &Tally{
		QoEHist:   NewHist(qoeHistLo, qoeHistHi, qoeHistBins),
		RebufHist: NewHist(rebufHistLo, rebufHistHi, rebufHistBins),
	}
}

// observe folds one session in.
func (t *Tally) observe(s sessionStats) {
	t.Completed++
	if s.abandoned {
		t.Abandoned++
	}
	t.Chunks += int64(s.chunks)
	perChunk := 0.0
	if s.chunks > 0 {
		perChunk = s.qoe / float64(s.chunks)
	}
	t.QoE.Observe(s.qoe)
	t.QoEPerChunk.Observe(perChunk)
	t.BitrateKbps.Observe(s.bitrate)
	t.RebufferSec.Observe(s.rebuffer)
	t.Switches.Observe(s.switches)
	t.StartupSec.Observe(s.startup)
	t.QoEHist.Observe(perChunk)
	t.RebufHist.Observe(s.rebuffer)
}

// orderedTally applies per-session stats to a Tally in session-index
// order no matter in which order workers complete, so the running means
// and M2 sums — floating-point and order-sensitive — come out
// bit-identical on every run of the same scenario. Out-of-order arrivals
// wait in a pending map whose size is bounded by the scheduler's
// in-flight cap (a worker can only run ahead of the oldest unfinished
// session by the admission window). A session that fails still takes its
// turn, as a nil entry, so it never holds back the sessions after it.
type orderedTally struct {
	mu      sync.Mutex
	next    int
	pending map[int]*sessionStats
	tally   *Tally
}

func newOrderedTally() *orderedTally {
	return &orderedTally{pending: make(map[int]*sessionStats), tally: NewTally()}
}

// add submits session i's stats, or nil when session i failed;
// contiguous prefixes are folded in immediately (failed sessions are
// skipped), everything else parks until its predecessors arrive.
func (o *orderedTally) add(i int, s *sessionStats) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if i != o.next {
		o.pending[i] = s
		return
	}
	for {
		if s != nil {
			o.tally.observe(*s)
		}
		o.next++
		var ok bool
		if s, ok = o.pending[o.next]; !ok {
			return
		}
		delete(o.pending, o.next)
	}
}
