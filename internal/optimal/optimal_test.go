package optimal

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mpcdash/internal/abr"
	"mpcdash/internal/model"
	"mpcdash/internal/predictor"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

func newTestSolver(t testing.TB, m *model.Manifest) *Solver {
	t.Helper()
	s, err := NewSolver(m, model.Balanced, model.QIdentity, 30)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSolverValidation(t *testing.T) {
	if _, err := NewSolver(nil, model.Balanced, model.QIdentity, 30); err == nil {
		t.Error("expected error for nil manifest")
	}
	if _, err := NewSolver(model.EnvivioManifest(), model.Balanced, model.QIdentity, 0); err == nil {
		t.Error("expected error for zero buffer")
	}
	s, err := NewSolver(model.EnvivioManifest(), model.Balanced, nil, 30)
	if err != nil {
		t.Fatal(err)
	}
	if s.Quality == nil {
		t.Error("nil quality should default")
	}
}

// TestSolveConstantAmple: on an ample constant link the optimum is easy to
// reason about — play the top bitrate throughout with no rebuffering, so
// QoE ≈ K·Rmax − µs·Ts, minus at most one ladder climb.
func TestSolveConstantAmple(t *testing.T) {
	m, err := model.NewCBRManifest(model.EnvivioLadder(), 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.FromRates("ample", 10, []float64{20000})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSolver(t, m)
	s.DenseLevels = 0 // discrete ladder for an exact statement
	got := s.Solve(tr)
	// Upper bound: 20 top-rate chunks and free startup.
	upper := 20.0 * 3000
	// Achievable: Ts covering the first chunk's download (12000/20000 =
	// 0.6 s, grid rounds to 1 s), then top rate forever.
	lower := 20.0*3000 - model.Balanced.MuS*1 - 1e-6
	if got > upper+1e-6 || got < lower-3000 {
		t.Errorf("Solve = %v, want in [%v, %v]", got, lower, upper)
	}
}

// TestSolveDominatesOnlineControllers: the offline optimum must (up to the
// small quantization tolerance) upper-bound what any online algorithm
// achieves on the same trace — the defining property of the normalizer.
func TestSolveDominatesOnlineControllers(t *testing.T) {
	m := model.EnvivioManifest()
	s := newTestSolver(t, m)
	algs := []abr.Factory{abr.NewRB(1), abr.NewBB(5, 10), abr.NewFESTIVE(12, 1, 5)}
	for seed := int64(0); seed < 2; seed++ {
		for _, gen := range []func(int64, float64) *trace.Trace{trace.GenFCC, trace.GenHSDPA} {
			tr := gen(seed, m.Duration()+120)
			opt := s.Solve(tr)
			for _, factory := range algs {
				res, err := sim.Run(m, tr, factory(m), predictor.NewHarmonicMean(5), sim.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				qoe := res.QoE(model.Balanced, model.QIdentity)
				// Tolerance: binning can cost the DP a small sliver.
				if qoe > opt+0.02*math.Abs(opt)+3000 {
					t.Errorf("trace %s: %s QoE %v exceeds offline optimum %v",
						tr.Name, res.Algorithm, qoe, opt)
				}
			}
		}
	}
}

// TestDiscreteBelowRelaxed: the continuous-bitrate relaxation upper-bounds
// the discrete-ladder optimum (footnote 6's rationale).
func TestDiscreteBelowRelaxed(t *testing.T) {
	m := model.EnvivioManifest()
	tr := trace.GenFCC(12, m.Duration()+60)
	discrete := newTestSolver(t, m)
	discrete.DenseLevels = 0
	relaxed := newTestSolver(t, m)
	relaxed.DenseLevels = 21
	d, r := discrete.Solve(tr), relaxed.Solve(tr)
	if d > r+0.01*math.Abs(r)+1500 {
		t.Errorf("discrete optimum %v exceeds relaxation %v", d, r)
	}
}

// TestSolveDeterministic: same trace, same answer.
func TestSolveDeterministic(t *testing.T) {
	m := model.EnvivioManifest()
	tr := trace.GenHSDPA(5, m.Duration()+60)
	s := newTestSolver(t, m)
	if a, b := s.Solve(tr), s.Solve(tr); a != b {
		t.Errorf("Solve not deterministic: %v vs %v", a, b)
	}
}

// TestKernelOrderMatchesSort: the bucketed order equals one global sort by
// bucketOrder, both when each bucket is one time bin and when the bins
// span more than the states, as on a slow trace whose downloads take
// thousands of seconds, and several bins share a bucket.
func TestKernelOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, span := range []int32{1, 40, 1 << 20} {
		for _, n := range []int{1, 2, 100} {
			var k kernel
			k.reset(n)
			for len(k.next) < n {
				// Whole-second buffers and coarse values make ties on them
				// common, so prev and t break them.
				buf := rng.Intn(31)
				k.insert(state{
					key: packKey(rng.Int31n(span), rng.Intn(4), int16(buf)),
					val: float64(rng.Intn(5)),
					t:   rng.Float64(),
					buf: float64(buf),
				})
			}
			want := slices.Clone(k.next)
			slices.SortFunc(want, bucketOrder)
			k.order()
			if !slices.Equal(k.next, want) {
				t.Errorf("span %d, %d states: bucketed order differs from the global sort", span, n)
			}
		}
	}
}

// TestSolveDeadTrace: an all-zero trace has no feasible plan.
func TestSolveDeadTrace(t *testing.T) {
	m := model.EnvivioManifest()
	tr, err := trace.FromRates("dead", 10, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSolver(t, m)
	if got := s.Solve(tr); !math.IsInf(got, -1) {
		t.Errorf("dead-trace optimum = %v, want -Inf", got)
	}
}

// TestFinerBinsDoNotDegrade: refining the grids should track the same
// optimum (within tolerance), sanity-checking convergence.
func TestFinerBinsDoNotDegrade(t *testing.T) {
	m := model.EnvivioManifest()
	tr := trace.GenFCC(21, m.Duration()+60)
	coarse := newTestSolver(t, m)
	coarse.TimeBin, coarse.BufferBin = 2, 2
	fine := newTestSolver(t, m)
	fine.TimeBin, fine.BufferBin = 0.5, 0.5
	c, f := coarse.Solve(tr), fine.Solve(tr)
	if math.Abs(c-f) > 0.05*math.Abs(f)+3000 {
		t.Errorf("coarse %v and fine %v solutions diverge", c, f)
	}
}

// TestSolvePlanConsistency: the reconstructed plan's value is exactly Solve's,
// replaying the plan through the exact dynamics reproduces the claimed QoE
// (within quantization tolerance), and the schedule is well-formed.
func TestSolvePlanConsistency(t *testing.T) {
	m, err := model.NewCBRManifest(model.EnvivioLadder(), 25, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(m, model.Balanced, model.QIdentity, 30)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.GenFCC(31, m.Duration()+60)
	plan := s.SolvePlan(tr)
	value := s.Solve(tr)
	if math.Float64bits(plan.QoE) != math.Float64bits(value) {
		t.Errorf("plan QoE %v != Solve %v", plan.QoE, value)
	}
	if len(plan.Rates) != m.ChunkCount {
		t.Fatalf("plan has %d rates, want %d", len(plan.Rates), m.ChunkCount)
	}
	for i, r := range plan.Rates {
		if r < m.Ladder.Min()-1e-9 || r > m.Ladder.Max()+1e-9 {
			t.Errorf("rate %d = %v outside [Rmin, Rmax]", i, r)
		}
	}
	if plan.StartupDelay < 0 || plan.StartupDelay > 30 {
		t.Errorf("startup = %v", plan.StartupDelay)
	}

	// Replay with exact (unquantized) dynamics.
	buffer := plan.StartupDelay
	tm := 0.0
	qoe := -model.Balanced.MuS * plan.StartupDelay
	prevRate := math.NaN()
	for k, rate := range plan.Rates {
		size := m.ChunkDuration * rate * m.SizeMultiplier(k)
		dl := tr.DownloadTime(tm, size)
		rebuffer := math.Max(dl-buffer, 0)
		afterDrain := math.Max(buffer-dl, 0) + m.ChunkDuration
		wait := math.Max(afterDrain-30, 0)
		buffer = afterDrain - wait
		tm += dl + wait
		qoe += rate - model.Balanced.Mu*rebuffer
		if !math.IsNaN(prevRate) {
			qoe -= model.Balanced.Lambda * math.Abs(rate-prevRate)
		}
		prevRate = rate
	}
	// Quantization means replay and DP value differ slightly; they must
	// agree to within a few percent.
	if math.Abs(qoe-plan.QoE) > 0.05*math.Abs(plan.QoE)+3000 {
		t.Errorf("replayed QoE %v far from plan QoE %v", qoe, plan.QoE)
	}
}

func TestSolvePlanDeadTrace(t *testing.T) {
	m := model.EnvivioManifest()
	s, err := NewSolver(m, model.Balanced, model.QIdentity, 30)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.FromRates("dead", 10, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	plan := s.SolvePlan(tr)
	if !math.IsInf(plan.QoE, -1) || plan.Rates != nil {
		t.Errorf("dead-trace plan = %+v, want infeasible", plan)
	}
}
