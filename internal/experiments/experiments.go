// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec 7). Each FigNN/TableNN function runs the corresponding
// workload, prints the plotted series as aligned text rows and returns
// them. All lists every experiment in run order; cmd/experiments and the
// repository-root BenchmarkExperiments both iterate it. See the
// per-experiment index in DESIGN.md.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"mpcdash/internal/model"
	"mpcdash/internal/runner"
	"mpcdash/internal/stats"
	"mpcdash/internal/trace"
)

// Config scopes an experiment run.
type Config struct {
	TraceCount int       // traces per dataset (paper: 1000; default 100)
	Seed       int64     // base seed for workload generation
	Out        io.Writer // row sink; nil discards
	CDFPoints  int       // CDF down-sampling for printed series (default 11)
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.TraceCount <= 0 {
		c.TraceCount = 100
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.CDFPoints <= 0 {
		c.CDFPoints = 11
	}
	return c
}

// Experiment is one table, figure or extension study of the catalog.
type Experiment struct {
	Key   string // cmd/experiments -fig value and sub-benchmark name
	Title string
	// Run prints the rows to cfg.Out and any timings, which vary run to
	// run and so stay off the rows, to timings.
	Run func(cfg Config, timings io.Writer) error
}

// All is the experiment catalog, in the order a full reproduction runs it.
var All = []Experiment{
	{"7", "Figure 7", run(Fig7)},
	{"8", "Figure 8", run(Fig8)},
	{"9", "Figure 9", run(Fig9)},
	{"10", "Figure 10", run(Fig10)},
	{"11a", "Figure 11a", run(Fig11a)},
	{"11b", "Figure 11b", run(Fig11b)},
	{"11c", "Figure 11c", run(Fig11c)},
	{"11d", "Figure 11d", run(Fig11d)},
	{"12a", "Figure 12a", run(Fig12a)},
	{"12b", "Figure 12b", run(Fig12b)},
	{"table1", "Table 1", func(cfg Config, timings io.Writer) error {
		rows, err := Table1(cfg)
		for _, r := range rows {
			fmt.Fprintf(timings, "table1: %d levels built in %s\n", r.Levels, r.BuildTime.Round(time.Millisecond))
		}
		return err
	}},
	{"levels", "Bitrate levels extension", run(LevelsSweep)},
	{"predictors", "Predictor comparison extension", run(PredictorSweep)},
	{"mdp", "MDP vs MPC extension", run(MDPComparison)},
	{"quality", "Quality-function extension", run(MultiQoESweep)},
	{"overhead", "Overhead", func(cfg Config, timings io.Writer) error {
		rows, err := Overhead(cfg)
		for _, r := range rows {
			fmt.Fprintf(timings, "overhead: %s %s per decision\n", r.Algorithm, r.PerDecision)
		}
		return err
	}},
}

// run drops an experiment's result, which it has already printed.
func run[R any](f func(Config) (R, error)) func(Config, io.Writer) error {
	return func(cfg Config, _ io.Writer) error {
		_, err := f(cfg)
		return err
	}
}

func (c Config) printf(format string, args ...interface{}) {
	fmt.Fprintf(c.Out, format, args...)
}

// datasets returns the three trace populations sized for the video.
func (c Config) datasets(videoDur float64) map[string][]*trace.Trace {
	dur := videoDur + 120 // headroom so slow sessions never exhaust the trace
	return map[string][]*trace.Trace{
		"FCC":       trace.Dataset(trace.FCC, c.TraceCount, dur, c.Seed),
		"HSDPA":     trace.Dataset(trace.HSDPA, c.TraceCount, dur, c.Seed+1),
		"Synthetic": trace.Dataset(trace.Synthetic, c.TraceCount, dur, c.Seed+2),
	}
}

// datasetNames is the canonical print order.
var datasetNames = []string{"FCC", "HSDPA", "Synthetic"}

// Series is one labelled line of a figure.
type Series struct {
	Label string
	CDF   stats.CDF
}

// printCDF renders a down-sampled CDF as "x:p" pairs.
func (c Config) printCDF(label string, cdf stats.CDF) {
	p := cdf.Points(c.CDFPoints)
	c.printf("  %-22s", label)
	for i := range p.X {
		c.printf(" %8.2f:%.2f", p.X[i], p.P[i])
	}
	c.printf("\n")
}

// sortedKeys returns map keys in sorted order for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// newRunner builds a session runner for the standard video under the given
// weights.
func newRunner(m *model.Manifest, w model.Weights, bufferMax float64, horizon int) *runner.Runner {
	r := runner.New(m)
	r.Weights = w
	r.Sim.BufferMax = bufferMax
	r.Sim.Horizon = horizon
	return r
}

// normQoE extracts the normalized-QoE series of a dataset run.
func normQoE(outs []runner.Outcome) []float64 {
	return runner.Select(outs, func(o runner.Outcome) float64 { return o.NormQoE })
}

// medians summarizes per-algorithm median normalized QoE.
func medians(byAlg map[string][]runner.Outcome) map[string]float64 {
	out := make(map[string]float64, len(byAlg))
	for name, outs := range byAlg {
		out[name] = stats.Median(normQoE(outs))
	}
	return out
}
