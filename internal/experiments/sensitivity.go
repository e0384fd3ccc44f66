package experiments

import (
	"fmt"

	"mpcdash/internal/abr"
	"mpcdash/internal/core"
	"mpcdash/internal/model"
	"mpcdash/internal/optimal"
	"mpcdash/internal/predictor"
	"mpcdash/internal/runner"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// SweepResult is a generic sensitivity curve set: per algorithm, the median
// normalized QoE at each x value.
type SweepResult struct {
	X      []float64
	Series map[string][]float64 // algorithm → median n-QoE per x
}

// sweep is the one loop of the Fig 11–12 sensitivity plots: at each x,
// point returns the runner, traces and algorithms to evaluate; sweep plays
// them, appends each algorithm's median normalized QoE to its series, and
// prints the curves. A sweep whose points differ only in player settings
// returns the same runner at every x, so each trace's offline optimum is
// solved once.
func sweep(cfg Config, title, xlabel string, xs []float64,
	point func(x float64) (*runner.Runner, []*trace.Trace, []runner.Algorithm, error)) (*SweepResult, error) {
	res := &SweepResult{X: xs, Series: map[string][]float64{}}
	for _, x := range xs {
		r, traces, algs, err := point(x)
		if err != nil {
			return nil, err
		}
		byAlg, err := r.RunAll(algs, traces)
		if err != nil {
			return nil, fmt.Errorf("%s, %s %v: %w", title, xlabel, x, err)
		}
		for alg, med := range medians(byAlg) {
			res.Series[alg] = append(res.Series[alg], med)
		}
	}
	cfg.printf("%s\n  %-12s", title, xlabel)
	for _, x := range xs {
		cfg.printf(" %8.2f", x)
	}
	cfg.printf("\n")
	for _, alg := range sortedKeys(res.Series) {
		cfg.printf("  %-12s", alg)
		for _, v := range res.Series[alg] {
			cfg.printf(" %8.3f", v)
		}
		cfg.printf("\n")
	}
	return res, nil
}

// sensitivityTraces is the simulation workload for the Fig 11/12 sweeps:
// the synthetic dataset, whose controlled variability isolates the swept
// parameter.
func sensitivityTraces(cfg Config, videoDur float64) []*trace.Trace {
	return trace.Dataset(trace.Synthetic, cfg.TraceCount, videoDur+120, cfg.Seed+7)
}

// standard returns the named entries of runner.StandardSet under the
// identity quality function, in the order given.
func standard(w model.Weights, bufferMax float64, horizon int, names ...string) []runner.Algorithm {
	set := runner.StandardSet(w, model.QIdentity, bufferMax, horizon)
	algs := make([]runner.Algorithm, len(names))
	for i, name := range names {
		alg, err := runner.Lookup(set, name)
		if err != nil {
			panic(err) // names are constants of this package
		}
		algs[i] = alg
	}
	return algs
}

// Fig11a reproduces the prediction-error sensitivity: MPC under a noisy
// oracle predictor degrades as the average error level grows, RobustMPC
// degrades more slowly, RB follows its predictor down, and BB — which
// ignores throughput — stays flat.
func Fig11a(cfg Config) (*SweepResult, error) {
	cfg = cfg.WithDefaults()
	m := model.EnvivioManifest()
	traces := sensitivityTraces(cfg, m.Duration())
	r := newRunner(m, model.Balanced, 30, 5)
	bb := standard(model.Balanced, 30, 5, "BB")[0]
	return sweep(cfg, "Figure 11a: n-QoE vs prediction error", "error",
		[]float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5},
		func(errLevel float64) (*runner.Runner, []*trace.Trace, []runner.Algorithm, error) {
			seed := cfg.Seed + int64(errLevel*1000)
			noisy := runner.NoisyOraclePred(m.ChunkDuration, errLevel, seed)
			trackedNoisy := runner.NoisyOraclePred(m.ChunkDuration, errLevel, seed+1)
			tracked := func(tr *trace.Trace) predictor.Predictor {
				return predictor.NewErrorTracked(trackedNoisy(tr), 5)
			}
			return r, traces, []runner.Algorithm{
				{Name: "MPC", Factory: core.NewMPC(model.Balanced, model.QIdentity, 30, 5), Predictor: noisy, Startup: sim.StartupController},
				{Name: "RobustMPC", Factory: core.NewRobustMPC(model.Balanced, model.QIdentity, 30, 5), Predictor: tracked, Startup: sim.StartupController},
				{Name: "RB", Factory: abr.NewRB(1), Predictor: noisy, Startup: sim.StartupFirstChunk},
				bb,
			}, nil
		})
}

// fig11Algorithms is the four-way set the remaining sensitivity plots use:
// MPC-OPT (perfect prediction), FastMPC (harmonic mean), BB and RB.
func fig11Algorithms(w model.Weights, bufferMax float64, horizon int, chunkDur float64) []runner.Algorithm {
	return append([]runner.Algorithm{runner.MPCOptAlgorithm(w, model.QIdentity, bufferMax, horizon, chunkDur)},
		standard(w, bufferMax, horizon, "FastMPC", "BB", "RB")...)
}

// Fig11b reproduces the QoE-preference comparison under the Balanced,
// Avoid-Instability and Avoid-Rebuffering weight sets.
func Fig11b(cfg Config) (map[string]map[string]float64, error) {
	cfg = cfg.WithDefaults()
	m := model.EnvivioManifest()
	traces := sensitivityTraces(cfg, m.Duration())
	prefs := []struct {
		name string
		w    model.Weights
	}{
		{"Balanced", model.Balanced},
		{"AvoidInstability", model.AvoidInstability},
		{"AvoidRebuffering", model.AvoidRebuffering},
	}
	res := map[string]map[string]float64{}
	for _, pref := range prefs {
		r := newRunner(m, pref.w, 30, 5) // re-normalizes under each preference
		byAlg, err := r.RunAll(fig11Algorithms(pref.w, 30, 5, m.ChunkDuration), traces)
		if err != nil {
			return nil, fmt.Errorf("fig11b %s: %w", pref.name, err)
		}
		res[pref.name] = medians(byAlg)
	}
	cfg.printf("Figure 11b: n-QoE under QoE preferences\n")
	for _, pref := range prefs {
		cfg.printf("  %-18s", pref.name)
		for _, alg := range sortedKeys(res[pref.name]) {
			cfg.printf(" %s=%.3f", alg, res[pref.name][alg])
		}
		cfg.printf("\n")
	}
	return res, nil
}

// Fig11c reproduces the buffer-size sweep (10–50 s). The offline optimum
// depends on the buffer cap, so each point has its own runner.
func Fig11c(cfg Config) (*SweepResult, error) {
	cfg = cfg.WithDefaults()
	m := model.EnvivioManifest()
	traces := sensitivityTraces(cfg, m.Duration())
	return sweep(cfg, "Figure 11c: n-QoE vs buffer size", "Bmax (s)",
		[]float64{10, 20, 30, 40, 50},
		func(bmax float64) (*runner.Runner, []*trace.Trace, []runner.Algorithm, error) {
			return newRunner(m, model.Balanced, bmax, 5), traces, fig11Algorithms(model.Balanced, bmax, 5, m.ChunkDuration), nil
		})
}

// Fig11d reproduces the fixed-startup-time sweep: all algorithms play after
// exactly Ts seconds and the startup term is excluded from the QoE (µs=0),
// as in the paper's description.
func Fig11d(cfg Config) (*SweepResult, error) {
	cfg = cfg.WithDefaults()
	m := model.EnvivioManifest()
	traces := sensitivityTraces(cfg, m.Duration())
	w := model.Balanced
	w.MuS = 0
	r := newRunner(m, w, 30, 5)
	r.Sim.Startup = sim.StartupFixed
	// Normalize every sweep point by the same optimum — the µs = 0
	// offline optimal with a free startup (it saturates at Ts = Bmax
	// regardless of the sweep value) — so the curves show how the
	// algorithms improve with a longer head start, as in the paper.
	solver, err := optimal.NewSolver(m, w, model.QIdentity, 30)
	if err != nil {
		return nil, err
	}
	solver.TsStep = 30
	solver.TsMax = 30
	r.Opt = solver
	algs := fig11Algorithms(w, 30, 5, m.ChunkDuration)
	for i := range algs {
		algs[i].Startup = sim.StartupFixed
	}
	return sweep(cfg, "Figure 11d: n-QoE vs fixed startup time (startup term excluded)", "Ts (s)",
		[]float64{2, 4, 6, 8, 10},
		func(ts float64) (*runner.Runner, []*trace.Trace, []runner.Algorithm, error) {
			r.Sim.FixedStartup = ts
			return r, traces, algs, nil
		})
}
