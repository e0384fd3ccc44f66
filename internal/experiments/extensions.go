package experiments

import (
	"fmt"

	"mpcdash/internal/core"
	"mpcdash/internal/mdp"
	"mpcdash/internal/model"
	"mpcdash/internal/predictor"
	"mpcdash/internal/runner"
	"mpcdash/internal/sim"
	"mpcdash/internal/stats"
	"mpcdash/internal/trace"
)

// PredictorSweep is the Sec 8 "better throughput prediction" study: the
// same RobustMPC controller driven by different predictors across the
// three datasets. Median normalized QoE per (dataset, predictor).
func PredictorSweep(cfg Config) (map[string]map[string]float64, error) {
	cfg = cfg.WithDefaults()
	m := model.EnvivioManifest()

	preds := []struct {
		name string
		mk   runner.PredictorFactory
	}{
		{"harmonic", runner.TrackedHarmonicPred(5)},
		{"last", func(*trace.Trace) predictor.Predictor {
			return predictor.NewErrorTracked(&predictor.LastSample{}, 5)
		}},
		{"ewma", func(*trace.Trace) predictor.Predictor {
			return predictor.NewErrorTracked(predictor.NewEWMA(0.4), 5)
		}},
		{"ar1", func(*trace.Trace) predictor.Predictor {
			return predictor.NewErrorTracked(predictor.NewAR1(12), 5)
		}},
		{"ensemble", func(*trace.Trace) predictor.Predictor {
			return predictor.NewErrorTracked(predictor.NewEnsemble(5,
				predictor.NewHarmonicMean(5), predictor.NewAR1(12), predictor.NewEWMA(0.4)), 5)
		}},
		{"oracle", runner.OraclePred(m.ChunkDuration)},
	}

	res := map[string]map[string]float64{}
	for dataset, traces := range cfg.datasets(m.Duration()) {
		r := newRunner(m, model.Balanced, 30, 5)
		res[dataset] = map[string]float64{}
		for _, p := range preds {
			alg := runner.Algorithm{
				Name:      p.name,
				Factory:   core.NewRobustMPC(model.Balanced, model.QIdentity, 30, 5),
				Predictor: p.mk,
				Startup:   sim.StartupController,
			}
			outs, err := r.RunDataset(alg, traces)
			if err != nil {
				return nil, fmt.Errorf("predictor sweep %s/%s: %w", dataset, p.name, err)
			}
			res[dataset][p.name] = stats.Median(normQoE(outs))
		}
	}
	cfg.printf("Extension: RobustMPC n-QoE by predictor\n")
	for _, dataset := range datasetNames {
		cfg.printf("  %-10s", dataset)
		for _, name := range sortedKeys(res[dataset]) {
			cfg.printf(" %s=%.3f", name, res[dataset][name])
		}
		cfg.printf("\n")
	}
	return res, nil
}

// MDPComparison is the Sec 4.1/Sec 8 study: value-iteration MDP control
// versus MPC. The MDP gets the true hidden-Markov parameters as its prior
// on the Synthetic dataset — its best case — and a learned chain elsewhere,
// where the Markov assumption is wrong.
func MDPComparison(cfg Config) (map[string]map[string]float64, error) {
	cfg = cfg.WithDefaults()
	m := model.EnvivioManifest()
	markov := trace.DefaultMarkovConfig()
	truePrior := &mdp.ThroughputChain{Rates: markov.Means, Transition: markov.Transition}

	res := map[string]map[string]float64{}
	for dataset, traces := range cfg.datasets(m.Duration()) {
		r := newRunner(m, model.Balanced, 30, 5)
		prior := truePrior
		if dataset != "Synthetic" {
			prior = nil // must learn online; the chain is misspecified anyway
		}
		algs := []runner.Algorithm{
			{
				Name:      "MDP",
				Factory:   mdp.NewController(model.Balanced, model.QIdentity, 30, prior, 6, 15),
				Predictor: runner.HarmonicPred(5),
				Startup:   sim.StartupFirstChunk,
			},
			runner.MPCAlgorithm(model.Balanced, model.QIdentity, 30, 5),
			standard(model.Balanced, 30, 5, "RobustMPC")[0],
		}
		byAlg, err := r.RunAll(algs, traces)
		if err != nil {
			return nil, fmt.Errorf("mdp comparison %s: %w", dataset, err)
		}
		res[dataset] = medians(byAlg)
	}
	cfg.printf("Extension: MDP control vs MPC (median n-QoE)\n")
	for _, dataset := range datasetNames {
		cfg.printf("  %-10s", dataset)
		for _, name := range sortedKeys(res[dataset]) {
			cfg.printf(" %s=%.3f", name, res[dataset][name])
		}
		cfg.printf("\n")
	}
	return res, nil
}

// MultiQoESweep evaluates RobustMPC under alternative quality functions
// (identity, logarithmic, HD-biased), demonstrating the q(·) generality of
// Sec 3.1. Reported as raw QoE medians per quality model (normalization is
// not comparable across q).
func MultiQoESweep(cfg Config) (map[string]float64, error) {
	cfg = cfg.WithDefaults()
	m := model.EnvivioManifest()
	traces := sensitivityTraces(cfg, m.Duration())
	qs := []struct {
		name string
		q    model.QualityFunc
	}{
		{"identity", model.QIdentity},
		{"log", model.QLog(m.Ladder.Min())},
		{"hd", model.QHD(m.Ladder.Max())},
	}
	res := map[string]float64{}
	for _, qc := range qs {
		r := newRunner(m, model.Balanced, 30, 5)
		r.Quality = qc.q
		r.Normalize = false
		alg := runner.Algorithm{
			Name:      "RobustMPC",
			Factory:   core.NewNamedMPC("RobustMPC", model.Balanced, qc.q, 30, 5, true),
			Predictor: runner.TrackedHarmonicPred(5),
			Startup:   sim.StartupController,
		}
		outs, err := r.RunDataset(alg, traces)
		if err != nil {
			return nil, fmt.Errorf("quality sweep %s: %w", qc.name, err)
		}
		res[qc.name] = stats.Median(runner.Select(outs, func(o runner.Outcome) float64 { return o.QoE }))
	}
	cfg.printf("Extension: RobustMPC raw QoE under alternative q(·)\n")
	for _, name := range sortedKeys(res) {
		cfg.printf("  %-10s %12.0f\n", name, res[name])
	}
	return res, nil
}
