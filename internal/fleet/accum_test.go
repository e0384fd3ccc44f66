package fleet

import (
	"math"
	"math/rand"
	"testing"

	"mpcdash/internal/stats"
)

// Welford must agree with the two-pass reference statistics on arbitrary
// data.
func TestWelfordMatchesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(2000)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64()*1e3 + 500
			w.Observe(xs[i])
		}
		wantMean, wantStd := stats.Mean(xs), stats.Stddev(xs)
		if math.Abs(w.Mean-wantMean) > 1e-9*math.Max(1, math.Abs(wantMean)) {
			t.Fatalf("trial %d: mean %v, want %v", trial, w.Mean, wantMean)
		}
		if math.Abs(w.Std()-wantStd) > 1e-9*math.Max(1, wantStd) {
			t.Fatalf("trial %d: std %v, want %v", trial, w.Std(), wantStd)
		}
		if w.Min != stats.Quantile(xs, 0) || w.Max != stats.Quantile(xs, 1) {
			t.Fatalf("trial %d: extremes [%v,%v]", trial, w.Min, w.Max)
		}
	}
}

// Histogram quantiles must be within one bin width of the exact
// quantiles for in-range data.
func TestHistQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewHist(0, 1, 100)
	binWidth := 0.01
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.Float64()
		h.Observe(xs[i])
	}
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		got := h.Quantile(q)
		want := stats.Quantile(xs, q)
		if math.Abs(got-want) > binWidth {
			t.Errorf("q=%v: histogram %v vs exact %v (bound %v)", q, got, want, binWidth)
		}
	}
}

// Out-of-range samples clamp tail quantiles to the layout edges instead
// of inventing values.
func TestHistTailClamping(t *testing.T) {
	h := NewHist(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Observe(-5) // underflow
	}
	for i := 0; i < 10; i++ {
		h.Observe(100) // overflow
	}
	if got := h.Quantile(0.05); got != 0 {
		t.Errorf("underflow quantile = %v, want 0 (Lo)", got)
	}
	if got := h.Quantile(0.99); got != 10 {
		t.Errorf("overflow quantile = %v, want 10 (Hi)", got)
	}
	if h.Under != 10 || h.Over != 10 || h.N != 20 {
		t.Errorf("tails: under=%d over=%d n=%d", h.Under, h.Over, h.N)
	}
}

// The ordered tally must produce the exact same floats as a serial
// in-order reduction no matter how badly the submissions are shuffled.
func TestOrderedTallyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 500
	sessions := make([]sessionStats, n)
	for i := range sessions {
		sessions[i] = sessionStats{chunks: 10, qoe: rng.NormFloat64() * 1e4, bitrate: rng.Float64() * 3000}
	}
	serial := NewTally()
	for _, s := range sessions {
		serial.observe(s)
	}
	ot := newOrderedTally()
	for _, i := range rng.Perm(n) {
		ot.add(i, &sessions[i])
	}
	got := ot.tally
	if got.QoE.Mean != serial.QoE.Mean || got.QoE.M2 != serial.QoE.M2 {
		t.Fatalf("shuffled reduction differs: mean %v vs %v, M2 %v vs %v",
			got.QoE.Mean, serial.QoE.Mean, got.QoE.M2, serial.QoE.M2)
	}
	if got.Completed != int64(n) {
		t.Fatalf("completed = %d, want %d", got.Completed, n)
	}
	if len(ot.pending) != 0 {
		t.Fatalf("pending not drained: %d", len(ot.pending))
	}
}
