package experiments

import (
	"fmt"
	"math"
	"time"

	"mpcdash/internal/abr"
	"mpcdash/internal/core"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/model"
	"mpcdash/internal/predictor"
	"mpcdash/internal/runner"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// Fig12a reproduces the FastMPC discretization sweep: n-QoE as a function
// of the number of buffer/throughput bins, with perfect and harmonic-mean
// prediction. Coarse tables lose optimality; the curve saturates around
// 100 levels.
func Fig12a(cfg Config) (*SweepResult, error) {
	cfg = cfg.WithDefaults()
	m := model.EnvivioManifest()
	traces := sensitivityTraces(cfg, m.Duration())
	r := newRunner(m, model.Balanced, 30, 5)
	return sweep(cfg, "Figure 12a: n-QoE vs FastMPC discretization levels", "levels",
		[]float64{5, 10, 50, 100, 200},
		func(x float64) (*runner.Runner, []*trace.Trace, []runner.Algorithm, error) {
			n := int(x)
			spec := fastmpc.BinSpec{
				BufferBins: n, BufferMax: 30,
				RateBins: n, RateMin: 10, RateMax: 2 * m.Ladder.Max(),
			}
			factory := fastmpc.NewController(model.Balanced, model.QIdentity, 30, 5, &spec, false, "FastMPC")
			return r, traces, []runner.Algorithm{
				{
					Name:      "FastMPC+Perfect",
					Factory:   factory,
					Predictor: runner.OraclePred(m.ChunkDuration),
					Startup:   sim.StartupFirstChunk,
				},
				{
					Name:      "FastMPC+Harmonic",
					Factory:   factory,
					Predictor: runner.HarmonicPred(5),
					Startup:   sim.StartupFirstChunk,
				},
			}, nil
		})
}

// Fig12b reproduces the look-ahead-horizon sweep: exact MPC under noisy
// oracle predictions at 10/15/20% average error, horizons 2–9. Longer
// horizons help until compounding prediction error erodes the gain. The
// horizon is a player setting, so one runner serves every point.
func Fig12b(cfg Config) (*SweepResult, error) {
	cfg = cfg.WithDefaults()
	m := model.EnvivioManifest()
	traces := sensitivityTraces(cfg, m.Duration())
	r := newRunner(m, model.Balanced, 30, 5)
	return sweep(cfg, "Figure 12b: n-QoE vs look-ahead horizon", "horizon",
		[]float64{2, 3, 4, 5, 6, 7, 8, 9},
		func(x float64) (*runner.Runner, []*trace.Trace, []runner.Algorithm, error) {
			h := int(x)
			r.Sim.Horizon = h
			var algs []runner.Algorithm
			for _, e := range []float64{0.10, 0.15, 0.20} {
				algs = append(algs, runner.Algorithm{
					Name:      fmt.Sprintf("MPC err=%d%%", int(e*100)),
					Factory:   core.NewMPC(model.Balanced, model.QIdentity, 30, h),
					Predictor: runner.NoisyOraclePred(m.ChunkDuration, e, cfg.Seed+int64(h*100)+int64(e*1000)),
					Startup:   sim.StartupController,
				})
			}
			return r, traces, algs, nil
		})
}

// Table1Row is one row of the FastMPC table-size table.
type Table1Row struct {
	Levels        int
	FullBytesJS   int // 2 bytes/entry, the paper's JavaScript-literal accounting
	FullBytesBin  int // 1 byte/entry binary array
	RLEBytes      int
	Runs          int
	CompressRatio float64 // RLEBytes / FullBytesJS
	BuildTime     time.Duration
}

// Table1 reproduces "FastMPC table size": full versus run-length-coded
// table size at 50/100/200/500 discretization levels.
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.WithDefaults()
	m := model.EnvivioManifest()
	opt, err := core.NewOptimizer(m, model.Balanced, model.QIdentity, 30, 5)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, n := range []int{50, 100, 200, 500} {
		spec := fastmpc.BinSpec{
			BufferBins: n, BufferMax: 30,
			RateBins: n, RateMin: 10, RateMax: 2 * m.Ladder.Max(),
		}
		start := time.Now()
		table, err := fastmpc.Build(opt, spec)
		if err != nil {
			return nil, fmt.Errorf("table1 n=%d: %w", n, err)
		}
		c := fastmpc.Compress(table)
		row := Table1Row{
			Levels:       n,
			FullBytesJS:  table.FullSizeBytes(2),
			FullBytesBin: table.FullSizeBytes(1),
			RLEBytes:     c.SizeBytes(),
			Runs:         c.Runs(),
			BuildTime:    time.Since(start),
		}
		row.CompressRatio = float64(row.RLEBytes) / float64(row.FullBytesJS)
		rows = append(rows, row)
	}
	cfg.printf("Table 1: FastMPC table size\n")
	cfg.printf("  %-8s %12s %12s %12s %8s %8s\n", "levels", "full(2B/e)", "full(bin)", "rle", "runs", "ratio")
	for _, r := range rows {
		cfg.printf("  %-8d %11.1fkB %11.1fkB %11.1fkB %8d %8.2f\n",
			r.Levels, float64(r.FullBytesJS)/1000, float64(r.FullBytesBin)/1000,
			float64(r.RLEBytes)/1000, r.Runs, r.CompressRatio)
	}
	return rows, nil
}

// LevelsSweep is the Sec 7.3 bitrate-granularity study the paper describes
// but does not plot: n-QoE against the number of uniformly spaced ladder
// levels. BB and MPC improve with finer ladders while RB eventually loses
// stability.
func LevelsSweep(cfg Config) (*SweepResult, error) {
	cfg = cfg.WithDefaults()
	return sweep(cfg, "Extension: n-QoE vs number of bitrate levels", "levels",
		[]float64{2, 3, 5, 7, 10},
		func(x float64) (*runner.Runner, []*trace.Trace, []runner.Algorithm, error) {
			m, err := model.NewCBRManifest(model.UniformLadder(int(x), 350, 3000), 65, 4)
			if err != nil {
				return nil, nil, nil, err
			}
			return newRunner(m, model.Balanced, 30, 5), sensitivityTraces(cfg, m.Duration()),
				fig11Algorithms(model.Balanced, 30, 5, m.ChunkDuration), nil
		})
}

// OverheadRow reports the per-decision cost of one controller.
type OverheadRow struct {
	Algorithm   string
	PerDecision time.Duration
	TableBytes  int // extra memory for FastMPC (RLE table); 0 otherwise
}

// Overhead reproduces the Sec 7.4 microbenchmark: FastMPC's online cost is
// a table lookup comparable to BB and RB, with ~tens of kB of extra memory,
// while exact MPC pays the enumeration cost.
func Overhead(cfg Config) ([]OverheadRow, error) {
	cfg = cfg.WithDefaults()
	m := model.EnvivioManifest()
	tr := trace.GenFCC(cfg.Seed, m.Duration()+60)

	spec := fastmpc.DefaultBins(30, m.Ladder.Max())
	opt, err := core.NewOptimizer(m, model.Balanced, model.QIdentity, 30, 5)
	if err != nil {
		return nil, err
	}
	table, err := fastmpc.Build(opt, spec)
	if err != nil {
		return nil, err
	}
	compressed := fastmpc.Compress(table)

	controllers := []struct {
		name  string
		ctrl  abr.Controller
		bytes int
	}{
		{"RB", abr.NewRB(1)(m), 0},
		{"BB", abr.NewBB(5, 10)(m), 0},
		{"FastMPC", &fastmpc.Controller{Table: compressed}, compressed.SizeBytes()},
		{"MPC(exact)", core.NewMPC(model.Balanced, model.QIdentity, 30, 5)(m), 0},
	}
	// A fixed bag of representative states sampled from a real session.
	states := overheadStates(m, tr)
	var rows []OverheadRow
	for _, c := range controllers {
		iters := 2000
		if c.name == "MPC(exact)" {
			iters = 50
		}
		// The fastest of five batches: one batch of cheap decisions
		// lasts ~0.1 ms, so a single preemption would dominate it.
		best := time.Duration(math.MaxInt64)
		for range 5 {
			start := time.Now()
			for i := 0; i < iters; i++ {
				c.ctrl.Decide(states[i%len(states)])
			}
			best = min(best, time.Since(start))
		}
		rows = append(rows, OverheadRow{
			Algorithm:   c.name,
			PerDecision: best / time.Duration(iters),
			TableBytes:  c.bytes,
		})
	}
	cfg.printf("Sec 7.4: controller overhead\n")
	cfg.printf("  %-12s %12s\n", "algorithm", "extra-mem")
	for _, r := range rows {
		cfg.printf("  %-12s %11.1fkB\n", r.Algorithm, float64(r.TableBytes)/1000)
	}
	return rows, nil
}

// overheadStates samples decision states from a BB session over tr.
func overheadStates(m *model.Manifest, tr *trace.Trace) []abr.State {
	res, err := sim.Run(m, tr, abr.NewBB(5, 10)(m), predictor.NewHarmonicMean(5), sim.DefaultConfig())
	if err != nil {
		// The generated FCC trace is never all-zero, so this is unreachable
		// short of a programming error.
		panic(err)
	}
	states := make([]abr.State, 0, len(res.Chunks))
	for _, c := range res.Chunks {
		states = append(states, abr.State{
			Chunk:    c.Index,
			Buffer:   c.BufferBefore,
			Prev:     c.Level,
			Forecast: []float64{c.Predicted, c.Predicted, c.Predicted, c.Predicted, c.Predicted},
		})
	}
	return states
}
