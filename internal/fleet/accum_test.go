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

// Merging two accumulators must equal accumulating the concatenation,
// and merge order must not matter beyond float tolerance.
func TestWelfordMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		var a, b, all Welford
		na, nb := rng.Intn(500), 1+rng.Intn(500)
		for i := 0; i < na; i++ {
			x := rng.ExpFloat64() * 100
			a.Observe(x)
			all.Observe(x)
		}
		for i := 0; i < nb; i++ {
			x := rng.ExpFloat64() * 100
			b.Observe(x)
			all.Observe(x)
		}
		ab, ba := a, b
		ab.Merge(b)
		ba.Merge(a)
		for _, m := range []Welford{ab, ba} {
			if m.N != all.N {
				t.Fatalf("trial %d: N = %d, want %d", trial, m.N, all.N)
			}
			if math.Abs(m.Mean-all.Mean) > 1e-9*math.Max(1, math.Abs(all.Mean)) {
				t.Fatalf("trial %d: merged mean %v, want %v", trial, m.Mean, all.Mean)
			}
			if math.Abs(m.M2-all.M2) > 1e-6*math.Max(1, all.M2) {
				t.Fatalf("trial %d: merged M2 %v, want %v", trial, m.M2, all.M2)
			}
		}
		if ab.Mean != ba.Mean || ab.N != ba.N {
			t.Fatalf("trial %d: merge(A,B) != merge(B,A): %+v vs %+v", trial, ab, ba)
		}
		if math.Abs(ab.M2-ba.M2) > 1e-9*math.Max(1, ab.M2) {
			t.Fatalf("trial %d: merge(A,B).M2 %v vs merge(B,A).M2 %v", trial, ab.M2, ba.M2)
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

func TestHistMergeCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := NewHist(-100, 100, 64), NewHist(-100, 100, 64)
	for i := 0; i < 3000; i++ {
		a.Observe(rng.NormFloat64() * 40)
		b.Observe(rng.NormFloat64()*40 + 20)
	}
	ab, ba := a.Clone(), b.Clone()
	if err := ab.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := ba.Merge(a); err != nil {
		t.Fatal(err)
	}
	if ab.N != ba.N || ab.Under != ba.Under || ab.Over != ba.Over {
		t.Fatalf("merge totals differ: %+v vs %+v", ab, ba)
	}
	for i := range ab.Bins {
		if ab.Bins[i] != ba.Bins[i] {
			t.Fatalf("bin %d: %d vs %d", i, ab.Bins[i], ba.Bins[i])
		}
	}
	if q1, q2 := ab.Quantile(0.5), ba.Quantile(0.5); q1 != q2 {
		t.Fatalf("median after merge: %v vs %v", q1, q2)
	}
}

func TestHistMergeRejectsLayoutMismatch(t *testing.T) {
	a, b := NewHist(0, 1, 10), NewHist(0, 1, 20)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging different layouts should error")
	}
}

// Tally merge must equal a single tally over the union of sessions.
func TestTallyMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mk := func() sessionStats {
		return sessionStats{
			chunks:    1 + rng.Intn(65),
			qoe:       rng.NormFloat64() * 1e4,
			bitrate:   300 + rng.Float64()*2700,
			rebuffer:  rng.ExpFloat64() * 5,
			switches:  float64(rng.Intn(20)),
			startup:   rng.Float64() * 3,
			abandoned: rng.Intn(4) == 0,
		}
	}
	a, b, all := NewTally(), NewTally(), NewTally()
	var sessions []sessionStats
	for i := 0; i < 400; i++ {
		sessions = append(sessions, mk())
	}
	for i, s := range sessions {
		if i < 150 {
			a.observe(s)
		} else {
			b.observe(s)
		}
		all.observe(s)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Completed != all.Completed || a.Abandoned != all.Abandoned || a.Chunks != all.Chunks {
		t.Fatalf("counts: %+v vs %+v", a, all)
	}
	if math.Abs(a.QoE.Mean-all.QoE.Mean) > 1e-9*math.Max(1, math.Abs(all.QoE.Mean)) {
		t.Fatalf("QoE mean %v vs %v", a.QoE.Mean, all.QoE.Mean)
	}
	if a.QoEHist.N != all.QoEHist.N {
		t.Fatalf("hist N %d vs %d", a.QoEHist.N, all.QoEHist.N)
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
	got := ot.snapshot()
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
