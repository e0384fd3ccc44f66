package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mpcdash/internal/abr"
	"mpcdash/internal/model"
	"mpcdash/internal/predictor"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

func newOpt(t *testing.T, horizon int) *Optimizer {
	t.Helper()
	opt, err := NewOptimizer(model.EnvivioManifest(), model.Balanced, model.QIdentity, 30, horizon)
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

func TestNewOptimizerValidation(t *testing.T) {
	if _, err := NewOptimizer(nil, model.Balanced, model.QIdentity, 30, 5); err == nil {
		t.Error("expected error for nil manifest")
	}
	if _, err := NewOptimizer(model.EnvivioManifest(), model.Balanced, model.QIdentity, 0, 5); err == nil {
		t.Error("expected error for zero BufferMax")
	}
	opt, err := NewOptimizer(model.EnvivioManifest(), model.Balanced, nil, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Horizon != 5 {
		t.Errorf("default horizon = %d, want 5", opt.Horizon)
	}
	if opt.Quality == nil {
		t.Error("nil quality should default to identity")
	}
}

func TestPlanAmpleBandwidth(t *testing.T) {
	opt := newOpt(t, 5)
	// Huge throughput, full buffer, previous at top: stay at top.
	lvl, _, _ := opt.Plan(10, 30, 4, []float64{50000}, false)
	if lvl != 4 {
		t.Errorf("ample bandwidth plan = %d, want 4", lvl)
	}
}

func TestPlanStarvedBandwidth(t *testing.T) {
	opt := newOpt(t, 5)
	// Tiny throughput, empty buffer: rebuffer dominates, pick the lowest.
	lvl, _, _ := opt.Plan(10, 0, 4, []float64{50}, false)
	if lvl != 0 {
		t.Errorf("starved plan = %d, want 0", lvl)
	}
}

func TestPlanZeroForecastFallsBack(t *testing.T) {
	opt := newOpt(t, 5)
	lvl, _, _ := opt.Plan(10, 2, 2, []float64{0, 0}, false)
	if lvl != 0 {
		t.Errorf("unknown-forecast plan = %d, want 0", lvl)
	}
}

func TestPlanSwitchingPenaltyDamping(t *testing.T) {
	// With a large λ, MPC must refuse a one-chunk opportunistic jump that a
	// pure rate-based policy would take.
	m := model.EnvivioManifest()
	w := model.Weights{Lambda: 50, Mu: 3000, MuS: 3000}
	opt, err := NewOptimizer(m, w, model.QIdentity, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	lvl, _, _ := opt.Plan(10, 25, 0, []float64{3500}, false)
	if lvl == 4 {
		t.Error("high-λ plan jumped the full ladder despite switching penalty")
	}
}

func TestPlanHorizonTruncation(t *testing.T) {
	opt := newOpt(t, 5)
	// Final chunk: horizon must truncate to 1 without panicking.
	lvl, _, qoe := opt.Plan(64, 20, 2, []float64{2500}, false)
	if lvl < 0 || lvl > 4 {
		t.Fatalf("level out of range: %d", lvl)
	}
	if math.IsInf(qoe, 0) || math.IsNaN(qoe) {
		t.Fatalf("qoe = %v", qoe)
	}
	// Past the end: degenerate, must not panic.
	lvl, ts, qoe := opt.Plan(65, 20, 2, []float64{2500}, false)
	if lvl != 0 || ts != 0 || qoe != 0 {
		t.Errorf("past-end plan = (%d,%v,%v), want zeros", lvl, ts, qoe)
	}
}

// TestSearchMatchesBruteForce verifies the branch-and-bound enumeration
// against a plain brute-force evaluation of all level sequences.
func TestSearchMatchesBruteForce(t *testing.T) {
	m, err := model.NewCBRManifest(model.EnvivioLadder(), 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewOptimizer(m, model.Balanced, model.QIdentity, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		buffer := rng.Float64() * 30
		prev := rng.Intn(5)
		rates := []float64{
			100 + rng.Float64()*4000,
			100 + rng.Float64()*4000,
			100 + rng.Float64()*4000,
		}
		k := rng.Intn(m.ChunkCount - 3)
		_, _, got := opt.Plan(k, buffer, prev, rates, false)

		// Brute force over 5^3 plans.
		best := math.Inf(-1)
		for a := 0; a < 5; a++ {
			for b := 0; b < 5; b++ {
				for c := 0; c < 5; c++ {
					plan := []int{a, b, c}
					buf := buffer
					pl := prev
					total := 0.0
					for d, lvl := range plan {
						size := m.ChunkSize(k+d, lvl)
						dl := size / rates[d]
						reb := math.Max(dl-buf, 0)
						after := math.Max(buf-dl, 0) + m.ChunkDuration
						wait := math.Max(after-30, 0)
						buf = after - wait
						total += m.Ladder[lvl] - 3000*reb
						if pl >= 0 {
							total -= math.Abs(m.Ladder[lvl] - m.Ladder[pl])
						}
						pl = lvl
					}
					if total > best {
						best = total
					}
				}
			}
		}
		if math.Abs(got-best) > 1e-6 {
			t.Fatalf("iter %d: search QoE %v != brute force %v", iter, got, best)
		}
	}
}

// TestTheorem1Monotonicity: for any fixed plan, horizon QoE is
// non-decreasing in throughput, which is the heart of the robust-MPC
// equivalence proof — the worst case over [C_lo, C_hi] is at C_lo.
func TestTheorem1Monotonicity(t *testing.T) {
	opt := newOpt(t, 5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		buffer := rng.Float64() * 30
		prev := rng.Intn(5)
		lo := 50 + rng.Float64()*2000
		hi := lo * (1 + rng.Float64())
		_, _, qLo := opt.Plan(10, buffer, prev, []float64{lo}, false)
		_, _, qHi := opt.Plan(10, buffer, prev, []float64{hi}, false)
		// The optimal value is monotone because every fixed plan is.
		return qHi >= qLo-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTheorem1MaxMin verifies the full claim numerically: solving max-min
// over a sampled throughput interval equals solving regular MPC at the
// interval's lower bound.
func TestTheorem1MaxMin(t *testing.T) {
	m, err := model.NewCBRManifest(model.EnvivioLadder(), 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := model.Balanced
	rng := rand.New(rand.NewSource(5))
	const N = 3
	for iter := 0; iter < 50; iter++ {
		buffer := rng.Float64() * 30
		prev := rng.Intn(5)
		lo := 100 + rng.Float64()*2000
		hi := lo * (1 + rng.Float64())
		k := 2

		evalPlan := func(plan []int, rate float64) float64 {
			buf := buffer
			pl := prev
			total := 0.0
			for d, lvl := range plan {
				size := m.ChunkSize(k+d, lvl)
				dl := size / rate
				reb := math.Max(dl-buf, 0)
				after := math.Max(buf-dl, 0) + m.ChunkDuration
				wait := math.Max(after-30, 0)
				buf = after - wait
				total += m.Ladder[lvl] - w.Mu*reb
				if pl >= 0 {
					total -= w.Lambda * math.Abs(m.Ladder[lvl]-m.Ladder[pl])
				}
				pl = lvl
			}
			return total
		}

		// Brute-force max over plans of min over sampled C in [lo, hi].
		var plans [][]int
		var rec func([]int)
		rec = func(p []int) {
			if len(p) == N {
				plans = append(plans, append([]int(nil), p...))
				return
			}
			for l := 0; l < 5; l++ {
				rec(append(p, l))
			}
		}
		rec(nil)
		maxMin := math.Inf(-1)
		for _, p := range plans {
			worst := math.Inf(1)
			for i := 0; i <= 20; i++ {
				c := lo + (hi-lo)*float64(i)/20
				if v := evalPlan(p, c); v < worst {
					worst = v
				}
			}
			if worst > maxMin {
				maxMin = worst
			}
		}
		// Max over plans at C = lo.
		maxAtLo := math.Inf(-1)
		for _, p := range plans {
			if v := evalPlan(p, lo); v > maxAtLo {
				maxAtLo = v
			}
		}
		if math.Abs(maxMin-maxAtLo) > 1e-6 {
			t.Fatalf("iter %d: max-min %v != max at lower bound %v", iter, maxMin, maxAtLo)
		}
	}
}

func TestMPCControllerNames(t *testing.T) {
	m := model.EnvivioManifest()
	if got := NewMPC(model.Balanced, model.QIdentity, 30, 5)(m).Name(); got != "MPC" {
		t.Errorf("Name = %q", got)
	}
	if got := NewRobustMPC(model.Balanced, model.QIdentity, 30, 5)(m).Name(); got != "RobustMPC" {
		t.Errorf("Name = %q", got)
	}
	if got := NewNamedMPC("MPC-OPT", model.Balanced, model.QIdentity, 30, 5, false)(m).Name(); got != "MPC-OPT" {
		t.Errorf("Name = %q", got)
	}
}

func TestRobustMPCUsesLowerBound(t *testing.T) {
	m := model.EnvivioManifest()
	robust := NewRobustMPC(model.Balanced, model.QIdentity, 30, 5)(m)
	regular := NewMPC(model.Balanced, model.QIdentity, 30, 5)(m)
	s := abr.State{
		Chunk:    10,
		Buffer:   8,
		Prev:     2,
		Forecast: []float64{2500, 2500, 2500, 2500, 2500},
		Lower:    []float64{600, 600, 600, 600, 600},
	}
	r := robust.Decide(s).Level
	g := regular.Decide(s).Level
	if r > g {
		t.Errorf("robust picked %d above regular %d", r, g)
	}
	// With the optimistic forecast the regular MPC goes high; the robust
	// one must match MPC fed the lower bound directly.
	sLow := s
	sLow.Forecast = s.Lower
	sLow.Lower = nil
	if want := regular.Decide(sLow).Level; r != want {
		t.Errorf("robust = %d, regular@lower = %d (Theorem 1 equivalence)", r, want)
	}
}

func TestStartupPlanTradeoff(t *testing.T) {
	// With µ = µs a second of startup delay is exactly fungible with a
	// second of rebuffering, so the tie resolves to Ts = 0. Make rebuffer
	// strictly worse to force a positive startup delay on a slow link.
	w := model.Weights{Lambda: 1, Mu: 6000, MuS: 3000}
	opt, err := NewOptimizer(model.EnvivioManifest(), w, model.QIdentity, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	lvl, ts, _ := opt.Plan(0, 0, -1, []float64{300}, true)
	if ts <= 0 {
		t.Errorf("startup Ts = %v, want > 0 on a slow link", ts)
	}
	if ts > opt.TsMax {
		t.Errorf("Ts = %v exceeds TsMax %v", ts, opt.TsMax)
	}
	if lvl != 0 {
		t.Errorf("startup level = %d, want 0 on a slow link", lvl)
	}
	// Fast link: minimal startup delay.
	_, tsFast, _ := opt.Plan(0, 0, -1, []float64{20000}, true)
	if tsFast > ts {
		t.Errorf("fast-link Ts %v should not exceed slow-link Ts %v", tsFast, ts)
	}
}

// TestTiesBreakLow: when the forecast is unknown and everything rebuffers
// equally badly, the lower level must win ties (ascending iteration).
func TestTiesBreakLow(t *testing.T) {
	m, err := model.NewCBRManifest(model.Ladder{1000, 2000}, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := model.Weights{Lambda: 0, Mu: 0, MuS: 0} // no penalties: all QoE from quality
	opt, err := NewOptimizer(m, w, func(float64) float64 { return 1 }, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	lvl, _, _ := opt.Plan(0, 10, -1, []float64{1500}, false)
	if lvl != 0 {
		t.Errorf("tie broke to %d, want 0", lvl)
	}
}

// TestTerminalBufferKeepsMoreBuffer: rewarding terminal buffer must leave
// the player with more buffer on average over real sessions — that is the
// refinement's entire purpose. (Per-decision conservatism is not a theorem:
// switching-cost interplay can locally raise the first move.)
func TestTerminalBufferKeepsMoreBuffer(t *testing.T) {
	m := model.EnvivioManifest()
	guarded := NewTerminalBufferMPC("MPC+TB", model.Balanced, model.QIdentity, 30, 5, false, 300)
	if guarded(m).Name() != "MPC+TB" {
		t.Errorf("Name = %q", guarded(m).Name())
	}
	avgBuffer := func(factory abr.Factory) float64 {
		var total float64
		var n int
		for seed := int64(0); seed < 4; seed++ {
			tr := trace.GenHSDPA(seed, m.Duration()+120)
			res, err := sim.Run(m, tr, factory(m), predictor.NewHarmonicMean(5), sim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Chunks {
				total += c.BufferAfter
				n++
			}
		}
		return total / float64(n)
	}
	plain := avgBuffer(NewMPC(model.Balanced, model.QIdentity, 30, 5))
	tb := avgBuffer(guarded)
	if tb <= plain {
		t.Errorf("terminal-buffer MPC kept %v s of buffer vs plain %v s; expected more", tb, plain)
	}
}

// TestTerminalBufferZeroIsIdentity: weight 0 must reproduce the paper's
// controller decision-for-decision.
func TestTerminalBufferZeroIsIdentity(t *testing.T) {
	m := model.EnvivioManifest()
	plain := NewMPC(model.Balanced, model.QIdentity, 30, 5)(m)
	zero := NewTerminalBufferMPC("z", model.Balanced, model.QIdentity, 30, 5, false, 0)(m)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		s := abr.State{
			Chunk:    rng.Intn(60),
			Buffer:   rng.Float64() * 30,
			Prev:     rng.Intn(5),
			Forecast: []float64{100 + rng.Float64()*4000},
		}
		if plain.Decide(s).Level != zero.Decide(s).Level {
			t.Fatalf("weight-0 decision differs at %+v", s)
		}
	}
}

// TestPruningOffSameAnswer: branch-and-bound is a pure optimization. The
// ladder bound, the rollout incumbent and the startup floor change which
// nodes the search enters, never the level, Ts or QoE bits it returns.
// The sweep covers the three weight presets and one with µs ≠ µ, a
// terminal buffer reward, buffers above B_max, empty, short, full and
// over-long forecasts, all-zero forecasts (the minRate floor, whose ~1e10
// rebuffer penalties stress the cut's rounding slack) and startup solves.
func TestPruningOffSameAnswer(t *testing.T) {
	m := model.EnvivioManifest()
	presets := []model.Weights{model.Balanced, model.AvoidInstability, model.AvoidRebuffering, {Lambda: 1, Mu: 3000, MuS: 500}}
	rng := rand.New(rand.NewSource(12))
	for _, w := range presets {
		for _, terminal := range []float64{0, 300} {
			a, err := NewOptimizer(m, w, model.QIdentity, 30, 5)
			if err != nil {
				t.Fatal(err)
			}
			b := *a
			b.DisablePruning = true
			a.TerminalBufferWeight, b.TerminalBufferWeight = terminal, terminal
			var sa, sb Scratch
			for i := 0; i < 150; i++ {
				k := rng.Intn(m.ChunkCount)
				buffer := rng.Float64() * 40
				prev := rng.Intn(m.Levels()+1) - 1
				forecast := make([]float64, rng.Intn(8))
				if i%5 > 0 {
					for j := range forecast {
						if rng.Intn(4) > 0 {
							forecast[j] = 100 + rng.Float64()*6000
						}
					}
				}
				startup := i%10 == 0
				la, ta, qa := a.PlanScratch(&sa, k, buffer, prev, forecast, startup)
				lb, tb, qb := b.PlanScratch(&sb, k, buffer, prev, forecast, startup)
				if la != lb || math.Float64bits(ta) != math.Float64bits(tb) || math.Float64bits(qa) != math.Float64bits(qb) {
					t.Fatalf("weights %+v, terminal %v, state(k=%d,B=%v,prev=%d,f=%v,startup=%v): pruned (%d,%v,%v) != unpruned (%d,%v,%v)",
						w, terminal, k, buffer, prev, forecast, startup, la, ta, qa, lb, tb, qb)
				}
			}
		}
	}
}

// TestPlanUsesVBRSizes: with variable chunk sizes the optimizer must plan
// against the true d_k(R), not the nominal L·R — a fat upcoming chunk at a
// marginal rate should push the choice down relative to a lean one.
func TestPlanUsesVBRSizes(t *testing.T) {
	lean, err := model.NewVBRManifest(model.EnvivioLadder(), 65, 4, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Find two chunks with very different multipliers.
	fat, thin := -1, -1
	for k := 0; k < 60; k++ {
		if lean.SizeMultiplier(k) > 1.4 && fat == -1 {
			fat = k
		}
		if lean.SizeMultiplier(k) < 0.7 && thin == -1 {
			thin = k
		}
	}
	if fat == -1 || thin == -1 {
		t.Skip("seed produced no contrasting chunks")
	}
	opt, err := NewOptimizer(lean, model.Balanced, model.QIdentity, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Marginal state: enough buffer for a nominal chunk, not a fat one.
	rate := 1000.0
	buffer := 4.2
	fatLvl, _, _ := opt.Plan(fat, buffer, 2, []float64{rate}, false)
	thinLvl, _, _ := opt.Plan(thin, buffer, 2, []float64{rate}, false)
	if fatLvl > thinLvl {
		t.Errorf("fat chunk (×%.2f) got level %d above thin chunk (×%.2f) level %d",
			lean.SizeMultiplier(fat), fatLvl, lean.SizeMultiplier(thin), thinLvl)
	}
}

// TestHorizonRatesPadding: short forecasts extend with the last value, and
// non-positive entries inherit their predecessor. The padded rates live in
// the solve's Scratch, where the test can observe them.
func TestHorizonRatesPadding(t *testing.T) {
	opt := newOpt(t, 5)
	var s Scratch
	opt.PlanScratch(&s, 0, 10, -1, []float64{1000, 0, 2000}, false)
	want := []float64{1000, 1000, 2000, 2000, 2000}
	for i := range want {
		if math.Abs(s.rates[i]-want[i]) > 1e-9 {
			t.Fatalf("rates = %v, want %v", s.rates[:len(want)], want)
		}
	}
	opt.PlanScratch(&s, 0, 10, -1, nil, false)
	for _, r := range s.rates {
		if r <= 0 {
			t.Errorf("empty forecast should floor at a positive epsilon, got %v", r)
		}
	}
}
