package runner

import (
	"fmt"
	"hash/fnv"
	"strings"

	"mpcdash/internal/abr"
	"mpcdash/internal/core"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/model"
	"mpcdash/internal/predictor"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// The canonical algorithm set of Sec 7.1.2, each paired with the predictor
// and startup policy the paper evaluates it with:
//
//	RB, FESTIVE, FastMPC  — harmonic mean of the past 5 chunks
//	RobustMPC             — harmonic mean + max-error lower bound (Sec 4.3)
//	BB                    — no throughput input (predictor only logged)
//	dash.js               — last-chunk download ratio
//	MPC-OPT               — perfect 5-chunk oracle (simulation-only upper line)
//
// Non-MPC algorithms start playback when the first chunk arrives; the MPC
// family optimizes the startup delay jointly (f_stmpc).

// HarmonicPred returns the standard predictor factory.
func HarmonicPred(window int) PredictorFactory {
	return func(*trace.Trace) predictor.Predictor { return predictor.NewHarmonicMean(window) }
}

// TrackedHarmonicPred returns harmonic mean wrapped with error tracking,
// the RobustMPC configuration.
func TrackedHarmonicPred(window int) PredictorFactory {
	return func(*trace.Trace) predictor.Predictor {
		return predictor.NewErrorTracked(predictor.NewHarmonicMean(window), window)
	}
}

// LastSamplePred returns the last-chunk-throughput predictor used by the
// dash.js download-ratio rule.
func LastSamplePred() PredictorFactory {
	return func(*trace.Trace) predictor.Predictor { return &predictor.LastSample{} }
}

// OraclePred returns the perfect predictor with the given per-chunk window.
func OraclePred(step float64) PredictorFactory {
	return func(tr *trace.Trace) predictor.Predictor { return predictor.NewOracle(tr, step) }
}

// NoisyOraclePred returns the Fig 11a predictor: ground truth corrupted to
// the given average error level. Each trace's noise is seeded from baseSeed
// and an FNV-1a hash of the trace's name, so it does not depend on which
// worker builds the predictor, or when.
func NoisyOraclePred(step, errorLevel float64, baseSeed int64) PredictorFactory {
	return func(tr *trace.Trace) predictor.Predictor {
		h := fnv.New64a()
		h.Write([]byte(tr.Name))
		return predictor.NewNoisyOracle(tr, step, errorLevel, baseSeed+int64(h.Sum64()))
	}
}

// StandardSet builds the six algorithms of Fig 8 for the given QoE
// configuration. The FastMPC table is built once and shared.
func StandardSet(w model.Weights, q model.QualityFunc, bufferMax float64, horizon int) []Algorithm {
	return []Algorithm{
		{
			Name:      "RB",
			Factory:   abr.NewRB(1),
			Predictor: HarmonicPred(5),
			Startup:   sim.StartupFirstChunk,
		},
		{
			Name:      "BB",
			Factory:   abr.NewBB(5, 10),
			Predictor: HarmonicPred(5),
			Startup:   sim.StartupFirstChunk,
		},
		{
			Name:      "FastMPC",
			Factory:   fastmpc.NewController(w, q, bufferMax, horizon, nil, false, "FastMPC"),
			Predictor: HarmonicPred(5),
			Startup:   sim.StartupFirstChunk,
		},
		{
			Name:      "RobustMPC",
			Factory:   core.NewRobustMPC(w, q, bufferMax, horizon),
			Predictor: TrackedHarmonicPred(5),
			Startup:   sim.StartupController,
		},
		{
			Name:      "dash.js",
			Factory:   abr.NewDashJS(0, 0),
			Predictor: LastSamplePred(),
			Startup:   sim.StartupFirstChunk,
		},
		{
			Name:      "FESTIVE",
			Factory:   abr.NewFESTIVE(12, 1, 5),
			Predictor: HarmonicPred(5),
			Startup:   sim.StartupFirstChunk,
		},
	}
}

// MPCAlgorithm returns the exact-MPC algorithm with the harmonic predictor.
func MPCAlgorithm(w model.Weights, q model.QualityFunc, bufferMax float64, horizon int) Algorithm {
	return Algorithm{
		Name:      "MPC",
		Factory:   core.NewMPC(w, q, bufferMax, horizon),
		Predictor: HarmonicPred(5),
		Startup:   sim.StartupController,
	}
}

// MPCOptAlgorithm returns MPC with the perfect N-chunk oracle, the MPC-OPT
// line of Figs 11–12.
func MPCOptAlgorithm(w model.Weights, q model.QualityFunc, bufferMax float64, horizon int, chunkDur float64) Algorithm {
	return Algorithm{
		Name:      "MPC-OPT",
		Factory:   core.NewNamedMPC("MPC-OPT", w, q, bufferMax, horizon, false),
		Predictor: OraclePred(chunkDur),
		Startup:   sim.StartupController,
	}
}

// Catalog is every algorithm a player can be configured with by name: the
// StandardSet plus exact MPC and RobustFastMPC, the table lookup queried
// with RobustMPC's lower bound (Theorem 1), as the decision service plays
// robust sessions. MPC-OPT is not in it, as its oracle needs the trace
// ahead of time.
func Catalog(w model.Weights, q model.QualityFunc, bufferMax float64, horizon int) []Algorithm {
	return append(StandardSet(w, q, bufferMax, horizon), MPCAlgorithm(w, q, bufferMax, horizon), Algorithm{
		Name:      "RobustFastMPC",
		Factory:   fastmpc.NewController(w, q, bufferMax, horizon, nil, true, "RobustFastMPC"),
		Predictor: TrackedHarmonicPred(5),
		Startup:   sim.StartupFirstChunk,
	})
}

// Lookup finds name among algs, ignoring case; "dashjs" is accepted for
// dash.js. The error for an unknown name lists the names algs offers.
func Lookup(algs []Algorithm, name string) (Algorithm, error) {
	if strings.EqualFold(name, "dashjs") {
		name = "dash.js"
	}
	for _, alg := range algs {
		if strings.EqualFold(alg.Name, name) {
			return alg, nil
		}
	}
	names := make([]string, len(algs))
	for i, alg := range algs {
		names[i] = alg.Name
	}
	return Algorithm{}, fmt.Errorf("unknown algorithm %q (have %s)", name, strings.Join(names, ", "))
}
