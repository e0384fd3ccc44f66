package runner

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpcdash/internal/abr"
	"mpcdash/internal/model"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

func shortManifest(t *testing.T) *model.Manifest {
	t.Helper()
	m, err := model.NewCBRManifest(model.EnvivioLadder(), 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunSessionBasics(t *testing.T) {
	m := shortManifest(t)
	r := New(m)
	tr := trace.GenFCC(4, m.Duration()+120)
	alg := StandardSet(model.Balanced, model.QIdentity, 30, 5)[1] // BB
	out, err := r.RunSession(alg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != "BB" || out.TraceName != tr.Name {
		t.Errorf("labels: %q %q", out.Algorithm, out.TraceName)
	}
	if len(out.Result.Chunks) != m.ChunkCount {
		t.Errorf("chunks = %d", len(out.Result.Chunks))
	}
	if math.IsNaN(out.QoE) {
		t.Error("QoE is NaN")
	}
	if math.IsNaN(out.NormQoE) {
		t.Error("NormQoE is NaN with Normalize on")
	}
	if out.PredError < 0 || out.PredError > 5 {
		t.Errorf("PredError = %v", out.PredError)
	}
}

func TestNormalizeDisabled(t *testing.T) {
	m := shortManifest(t)
	r := New(m)
	r.Normalize = false
	tr := trace.GenFCC(4, m.Duration()+120)
	out, err := r.RunSession(StandardSet(model.Balanced, model.QIdentity, 30, 5)[0], tr)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(out.NormQoE) {
		t.Errorf("NormQoE = %v, want NaN when normalization is off", out.NormQoE)
	}
}

func TestOptimalQoECached(t *testing.T) {
	m := shortManifest(t)
	r := New(m)
	tr := trace.GenFCC(4, m.Duration()+120)
	a, err := r.OptimalQoE(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.OptimalQoE(tr)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("cache miss: %v vs %v", a, b)
	}
	if len(r.optCache) != 1 {
		t.Errorf("cache size = %d", len(r.optCache))
	}
}

// TestRunDatasetParallelDeterminism: outcomes do not depend on the worker
// count, also for the noisy oracle, whose predictors the workers build
// concurrently (a race there shows under -race).
func TestRunDatasetParallelDeterminism(t *testing.T) {
	m := shortManifest(t)
	traces := trace.Dataset(trace.FCC, 6, m.Duration()+120, 3)
	rb := StandardSet(model.Balanced, model.QIdentity, 30, 5)[0]
	noisy := rb
	noisy.Predictor = NoisyOraclePred(m.ChunkDuration, 0.2, 42)

	for _, alg := range []Algorithm{rb, noisy} {
		run := func(workers int) []Outcome {
			r := New(m)
			r.Workers = workers
			outs, err := r.RunDataset(alg, traces)
			if err != nil {
				t.Fatal(err)
			}
			return outs
		}
		serial := run(1)
		parallel := run(8)
		if len(serial) != len(parallel) {
			t.Fatalf("lengths differ")
		}
		for i := range serial {
			if serial[i].QoE != parallel[i].QoE || serial[i].TraceName != parallel[i].TraceName {
				t.Errorf("trace %d: serial %v vs parallel %v", i, serial[i].QoE, parallel[i].QoE)
			}
		}
	}
}

// TestNoisyOraclePredOrderIndependent: a trace's noisy forecast depends on
// the seed and the trace only, not on the traces the factory served first.
func TestNoisyOraclePredOrderIndependent(t *testing.T) {
	a := trace.GenFCC(1, 200)
	b := trace.GenFCC(2, 200)
	forecasts := func(order ...*trace.Trace) map[string][]float64 {
		mk := NoisyOraclePred(4, 0.2, 42)
		out := map[string][]float64{}
		for _, tr := range order {
			out[tr.Name] = mk(tr).Predict(5)
		}
		return out
	}
	ab, ba := forecasts(a, b), forecasts(b, a)
	for _, name := range []string{a.Name, b.Name} {
		for i := range ab[name] {
			if math.Float64bits(ab[name][i]) != math.Float64bits(ba[name][i]) {
				t.Errorf("%s step %d: %v after one order, %v after the other", name, i, ab[name][i], ba[name][i])
			}
		}
	}
}

func TestRunAll(t *testing.T) {
	m := shortManifest(t)
	traces := trace.Dataset(trace.Synthetic, 3, m.Duration()+120, 5)
	r := New(m)
	algs := StandardSet(model.Balanced, model.QIdentity, 30, 5)[:2]
	byAlg, err := r.RunAll(algs, traces)
	if err != nil {
		t.Fatal(err)
	}
	if len(byAlg) != 2 {
		t.Fatalf("algorithms = %d", len(byAlg))
	}
	for name, outs := range byAlg {
		if len(outs) != 3 {
			t.Errorf("%s: %d outcomes", name, len(outs))
		}
	}
}

func TestStartupPolicyPerAlgorithm(t *testing.T) {
	m := shortManifest(t)
	tr := trace.GenFCC(8, m.Duration()+120)
	r := New(m)
	// The RobustMPC algorithm runs with StartupController; FixedStartup in
	// the base sim config must not leak into it.
	r.Sim.FixedStartup = 99
	set := StandardSet(model.Balanced, model.QIdentity, 30, 5)
	robust := set[3]
	if robust.Startup != sim.StartupController {
		t.Fatalf("unexpected standard set order: %s has policy %v", robust.Name, robust.Startup)
	}
	out, err := r.RunSession(robust, tr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.StartupDelay == 99 {
		t.Error("fixed startup leaked into a controller-startup algorithm")
	}
}

func TestSelect(t *testing.T) {
	outs := []Outcome{{QoE: 1}, {QoE: 2}, {QoE: 3}}
	got := Select(outs, func(o Outcome) float64 { return o.QoE })
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Select = %v", got)
	}
}

func TestSessionPredError(t *testing.T) {
	res := &model.SessionResult{Chunks: []model.ChunkRecord{
		{Predicted: 1000, Throughput: 800}, // err 0.25
		{Predicted: 0, Throughput: 800},    // skipped
		{Predicted: 900, Throughput: 1000}, // err 0.1
	}}
	if got := sessionPredError(res); math.Abs(got-0.175) > 1e-9 {
		t.Errorf("sessionPredError = %v, want 0.175", got)
	}
	if got := sessionPredError(&model.SessionResult{}); got != 0 {
		t.Errorf("empty session error = %v", got)
	}
}

func TestMPCOptBeatsHarmonicMPC(t *testing.T) {
	m := shortManifest(t)
	traces := trace.Dataset(trace.HSDPA, 6, m.Duration()+120, 11)
	r := New(m)
	r.Normalize = false
	optAlg := MPCOptAlgorithm(model.Balanced, model.QIdentity, 30, 5, m.ChunkDuration)
	mpcAlg := MPCAlgorithm(model.Balanced, model.QIdentity, 30, 5)
	optOuts, err := r.RunDataset(optAlg, traces)
	if err != nil {
		t.Fatal(err)
	}
	mpcOuts, err := r.RunDataset(mpcAlg, traces)
	if err != nil {
		t.Fatal(err)
	}
	var optSum, mpcSum float64
	for i := range optOuts {
		optSum += optOuts[i].QoE
		mpcSum += mpcOuts[i].QoE
	}
	// Receding-horizon MPC is not globally optimal even with a perfect
	// horizon forecast, and the oracle predicts window averages rather
	// than exact download intervals — allow a small tolerance.
	if optSum < mpcSum-0.03*math.Abs(mpcSum) {
		t.Errorf("perfect prediction (%v) should not clearly lose to harmonic mean (%v)", optSum, mpcSum)
	}
}

// slowAlg wraps BB with a controller that sleeps on every decision, so a
// dataset run takes long enough to cancel mid-flight.
func slowAlg(delay time.Duration) Algorithm {
	base := StandardSet(model.Balanced, model.QIdentity, 30, 5)[1] // BB
	return Algorithm{
		Name: "slow-bb",
		Factory: func(m *model.Manifest) abr.Controller {
			return slowController{inner: base.Factory(m), delay: delay}
		},
		Predictor: base.Predictor,
		Startup:   base.Startup,
	}
}

type slowController struct {
	inner abr.Controller
	delay time.Duration
}

func (s slowController) Name() string { return "slow-" + s.inner.Name() }
func (s slowController) Decide(st abr.State) abr.Decision {
	time.Sleep(s.delay)
	return s.inner.Decide(st)
}

// Cancelling the context mid-dataset must stop the workers promptly:
// far fewer outcomes than traces, and a return well before the full run
// would have finished.
func TestRunDatasetCancellation(t *testing.T) {
	m := shortManifest(t)
	traces := trace.Dataset(trace.FCC, 64, m.Duration()+120, 17)
	r := New(m)
	r.Normalize = false
	r.Workers = 4
	// 20 chunks × 2 ms ≈ 40 ms per session; 64 sessions on 4 workers is
	// well over half a second of work.
	alg := slowAlg(2 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	var visited atomic.Int64
	errc := make(chan error, 1)
	start := time.Now()
	go func() {
		errc <- r.RunDatasetFunc(ctx, alg, traces, func(Outcome) { visited.Add(1) })
	}()
	time.Sleep(60 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("RunDatasetFunc error = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("workers did not stop within 2s of cancellation")
	}
	elapsed := time.Since(start)
	if n := visited.Load(); n >= int64(len(traces)) {
		t.Errorf("all %d sessions completed despite cancellation", n)
	}
	// In-flight sessions finish (~40 ms each) but nothing new starts, so
	// the whole call ends long before the ~600 ms a full run needs.
	if elapsed > 500*time.Millisecond {
		t.Errorf("run took %v after cancel; workers did not stop promptly", elapsed)
	}
}

// A pre-cancelled context must not run any sessions.
func TestRunDatasetCancelledUpFront(t *testing.T) {
	m := shortManifest(t)
	traces := trace.Dataset(trace.FCC, 4, m.Duration()+120, 19)
	r := New(m)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var visited atomic.Int64
	err := r.RunDatasetFunc(ctx, StandardSet(model.Balanced, model.QIdentity, 30, 5)[0], traces,
		func(Outcome) { visited.Add(1) })
	if err != context.Canceled {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if visited.Load() != 0 {
		t.Errorf("visited %d sessions on a dead context", visited.Load())
	}
}

// The streaming visitor must see every session exactly once with its
// index, and agree with the materialized API.
func TestRunDatasetFuncStreams(t *testing.T) {
	m := shortManifest(t)
	traces := trace.Dataset(trace.HSDPA, 8, m.Duration()+120, 23)
	alg := StandardSet(model.Balanced, model.QIdentity, 30, 5)[0]

	r := New(m)
	r.Workers = 4
	byIdx := make([]float64, len(traces))
	seen := make([]bool, len(traces))
	var mu sync.Mutex
	err := r.RunDatasetFunc(context.Background(), alg, traces, func(o Outcome) {
		mu.Lock()
		defer mu.Unlock()
		if o.Session < 0 || o.Session >= len(traces) || seen[o.Session] {
			t.Errorf("bad or duplicate session index %d", o.Session)
			return
		}
		seen[o.Session] = true
		byIdx[o.Session] = o.QoE
	})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := r.RunDataset(alg, traces)
	if err != nil {
		t.Fatal(err)
	}
	for i := range traces {
		if !seen[i] {
			t.Fatalf("session %d never visited", i)
		}
		if byIdx[i] != outs[i].QoE {
			t.Errorf("session %d: streamed QoE %v != materialized %v", i, byIdx[i], outs[i].QoE)
		}
	}
}

// Gate and PerSession hooks fire once per session, in admission order
// for Gate and with a per-session mutable config for PerSession.
func TestRunnerHooks(t *testing.T) {
	m := shortManifest(t)
	traces := trace.Dataset(trace.FCC, 6, m.Duration()+120, 29)
	r := New(m)
	r.Normalize = false
	var admitted, released, configured atomic.Int64
	r.Gate = func(ctx context.Context, session int) (func(), error) {
		admitted.Add(1)
		return func() { released.Add(1) }, nil
	}
	r.PerSession = func(session int, cfg *sim.Config) {
		configured.Add(1)
		cfg.MaxChunks = 3
	}
	outs, err := r.RunDataset(slowAlg(0), traces)
	if err != nil {
		t.Fatal(err)
	}
	if admitted.Load() != 6 || released.Load() != 6 || configured.Load() != 6 {
		t.Errorf("hook counts: admitted=%d released=%d configured=%d, want 6 each",
			admitted.Load(), released.Load(), configured.Load())
	}
	for i, o := range outs {
		if len(o.Result.Chunks) != 3 {
			t.Errorf("session %d played %d chunks; PerSession MaxChunks=3 ignored", i, len(o.Result.Chunks))
		}
	}
}
