package experiments

import (
	"fmt"

	"mpcdash/internal/model"
	"mpcdash/internal/runner"
	"mpcdash/internal/stats"
)

// Fig7Result holds the dataset-characteristics CDFs: per-trace mean
// throughput, throughput standard deviation, and session-average harmonic-
// mean prediction error.
type Fig7Result struct {
	Mean      map[string]stats.CDF
	Stddev    map[string]stats.CDF
	PredError map[string]stats.CDF
}

// Fig7 reproduces "Characteristics of datasets": the three CDFs that
// establish FCC as the most stable and HSDPA as the most variable
// population, with correspondingly ordered prediction errors.
func Fig7(cfg Config) (*Fig7Result, error) {
	cfg = cfg.WithDefaults()
	m := model.EnvivioManifest()
	res := &Fig7Result{
		Mean:      map[string]stats.CDF{},
		Stddev:    map[string]stats.CDF{},
		PredError: map[string]stats.CDF{},
	}
	r := newRunner(m, model.Balanced, 30, 5)
	r.Normalize = false // prediction error needs sessions, not optima
	alg := standard(model.Balanced, 30, 5, "RB")[0]
	for name, traces := range cfg.datasets(m.Duration()) {
		var means, stds []float64
		for _, tr := range traces {
			means = append(means, tr.Mean())
			stds = append(stds, tr.Stddev())
		}
		outs, err := r.RunDataset(alg, traces)
		if err != nil {
			return nil, fmt.Errorf("fig7 %s: %w", name, err)
		}
		errs := runner.Select(outs, func(o runner.Outcome) float64 { return o.PredError })
		res.Mean[name] = stats.NewCDF(means)
		res.Stddev[name] = stats.NewCDF(stds)
		res.PredError[name] = stats.NewCDF(errs)
	}

	cfg.printf("Figure 7: dataset characteristics (%d traces each)\n", cfg.TraceCount)
	cfg.printf(" CDF of mean throughput (kbps):\n")
	for _, name := range datasetNames {
		cfg.printCDF(name, res.Mean[name])
	}
	cfg.printf(" CDF of throughput stddev (kbps):\n")
	for _, name := range datasetNames {
		cfg.printCDF(name, res.Stddev[name])
	}
	cfg.printf(" CDF of average percentage prediction error (harmonic mean):\n")
	for _, name := range datasetNames {
		cfg.printCDF(name, res.PredError[name])
	}
	return res, nil
}

// Fig8Result holds the normalized-QoE CDFs per dataset and algorithm, plus
// the per-algorithm medians used in the paper's headline claims.
type Fig8Result struct {
	CDF     map[string]map[string]stats.CDF // dataset → algorithm → n-QoE CDF
	Medians map[string]map[string]float64
}

// fig8Algorithms is the six-way comparison of Sec 7.2.
func fig8Algorithms() []runner.Algorithm {
	return runner.StandardSet(model.Balanced, model.QIdentity, 30, 5)
}

// Fig8 reproduces "Real experiment results with different throughput
// traces": CDFs of normalized QoE for RB, BB, FastMPC, RobustMPC, dash.js
// and FESTIVE over the three datasets.
func Fig8(cfg Config) (*Fig8Result, error) {
	cfg = cfg.WithDefaults()
	m := model.EnvivioManifest()
	res := &Fig8Result{
		CDF:     map[string]map[string]stats.CDF{},
		Medians: map[string]map[string]float64{},
	}
	algs := fig8Algorithms()
	for name, traces := range cfg.datasets(m.Duration()) {
		r := newRunner(m, model.Balanced, 30, 5)
		byAlg, err := r.RunAll(algs, traces)
		if err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", name, err)
		}
		res.CDF[name] = map[string]stats.CDF{}
		for alg, outs := range byAlg {
			res.CDF[name][alg] = stats.NewCDF(normQoE(outs))
		}
		res.Medians[name] = medians(byAlg)
	}

	cfg.printf("Figure 8: normalized QoE CDFs (%d traces per dataset)\n", cfg.TraceCount)
	for _, name := range datasetNames {
		cfg.printf(" dataset %s:\n", name)
		for _, alg := range sortedKeys(res.CDF[name]) {
			cfg.printCDF(alg, res.CDF[name][alg])
		}
		cfg.printf("  medians:")
		for _, alg := range sortedKeys(res.Medians[name]) {
			cfg.printf(" %s=%.3f", alg, res.Medians[name][alg])
		}
		cfg.printf("\n")
	}
	return res, nil
}

// DetailResult holds the per-factor CDFs of Figs 9 and 10.
type DetailResult struct {
	Dataset       string
	AvgBitrate    map[string]stats.CDF
	BitrateChange map[string]stats.CDF
	RebufferTime  map[string]stats.CDF
}

// figDetail runs the six algorithms on one dataset and splits the QoE into
// its factors.
func figDetail(cfg Config, dataset string) (*DetailResult, error) {
	cfg = cfg.WithDefaults()
	m := model.EnvivioManifest()
	traces := cfg.datasets(m.Duration())[dataset]
	r := newRunner(m, model.Balanced, 30, 5)
	r.Normalize = false // factor CDFs need no optimum
	byAlg, err := r.RunAll(fig8Algorithms(), traces)
	if err != nil {
		return nil, fmt.Errorf("detail %s: %w", dataset, err)
	}
	res := &DetailResult{
		Dataset:       dataset,
		AvgBitrate:    map[string]stats.CDF{},
		BitrateChange: map[string]stats.CDF{},
		RebufferTime:  map[string]stats.CDF{},
	}
	for alg, outs := range byAlg {
		res.AvgBitrate[alg] = stats.NewCDF(runner.Select(outs, func(o runner.Outcome) float64 { return o.Metrics.AvgBitrate }))
		res.BitrateChange[alg] = stats.NewCDF(runner.Select(outs, func(o runner.Outcome) float64 { return o.Metrics.AvgBitrateChange }))
		res.RebufferTime[alg] = stats.NewCDF(runner.Select(outs, func(o runner.Outcome) float64 { return o.Metrics.RebufferTime }))
	}

	cfg.printf("Detailed performance for %s dataset (%d traces)\n", dataset, cfg.TraceCount)
	cfg.printf(" CDF of average bitrate (kbps):\n")
	for _, alg := range sortedKeys(res.AvgBitrate) {
		cfg.printCDF(alg, res.AvgBitrate[alg])
	}
	cfg.printf(" CDF of average bitrate change (kbps/chunk):\n")
	for _, alg := range sortedKeys(res.BitrateChange) {
		cfg.printCDF(alg, res.BitrateChange[alg])
	}
	cfg.printf(" CDF of total rebuffer time (s):\n")
	for _, alg := range sortedKeys(res.RebufferTime) {
		cfg.printCDF(alg, res.RebufferTime[alg])
	}
	return res, nil
}

// Fig9 reproduces the FCC per-factor breakdown.
func Fig9(cfg Config) (*DetailResult, error) { return figDetail(cfg, "FCC") }

// Fig10 reproduces the HSDPA per-factor breakdown.
func Fig10(cfg Config) (*DetailResult, error) { return figDetail(cfg, "HSDPA") }
