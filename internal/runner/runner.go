// Package runner executes playback sessions at dataset scale: it pairs each
// algorithm with its predictor and startup policy (Sec 7.1.2), fans sessions
// out across CPUs, normalizes QoE by the per-trace offline optimum, and
// aggregates the per-session metrics every figure of Sec 7 is drawn from.
package runner

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"mpcdash/internal/abr"
	"mpcdash/internal/model"
	"mpcdash/internal/obs"
	"mpcdash/internal/optimal"
	"mpcdash/internal/predictor"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// Runner metric names on the shared registry.
const (
	MetricSessionsTotal = "mpcdash_runner_sessions_total"
	MetricWorkersBusy   = "mpcdash_runner_workers_busy"
	MetricSessionKbps   = "mpcdash_runner_session_kbps"
)

// PredictorFactory builds a fresh per-session predictor; oracle predictors
// need the session's trace.
type PredictorFactory func(tr *trace.Trace) predictor.Predictor

// Algorithm pairs a controller with the predictor and startup policy it is
// evaluated with.
type Algorithm struct {
	Name      string
	Factory   abr.Factory
	Predictor PredictorFactory
	Startup   sim.StartupPolicy
}

// Outcome is one completed session with its scores.
type Outcome struct {
	Algorithm string
	TraceName string
	Session   int // index within the dataset the session was part of

	Result    *model.SessionResult
	Metrics   model.Metrics
	QoE       float64
	NormQoE   float64 // QoE / QoE(OPT); NaN when normalization is disabled
	PredError float64 // session-average |Ĉ−C|/C over chunks with a prediction
}

// Runner evaluates algorithms over trace datasets.
type Runner struct {
	Manifest *model.Manifest
	Weights  model.Weights
	Quality  model.QualityFunc
	Sim      sim.Config

	// Normalize enables division by the offline optimal QoE (cached per
	// trace). Disable for raw-QoE studies.
	Normalize bool
	// Opt overrides the offline solver configuration; nil uses defaults.
	Opt *optimal.Solver

	// Workers bounds the dataset worker pool (see ForEach); 0 means
	// GOMAXPROCS.
	Workers int

	// Obs receives per-decision events from every session (stamped with
	// the session's index within its dataset) plus runner-level progress
	// metrics: sessions completed per algorithm, busy workers, and the
	// per-session mean download throughput. Nil disables observability.
	Obs *obs.Recorder

	// Gate, when non-nil, is called by a worker immediately before each
	// session starts, e.g. to pace arrivals, bound in-flight sessions or
	// time each session. A non-nil error cancels the remaining dataset
	// (the error is returned to the caller); the returned done callback,
	// if any, is invoked once the session finishes, success or not. The
	// fleet does not use it: it admits sessions in its own pool.
	Gate func(ctx context.Context, session int) (done func(), err error)

	// PerSession, when non-nil, customizes the simulator configuration
	// of one session after the Runner defaults and the algorithm's
	// startup policy are applied, e.g. a per-session watch duration. The
	// fleet does not use it: it builds each session's config itself.
	PerSession func(session int, cfg *sim.Config)

	mu       sync.Mutex
	optCache map[*trace.Trace]float64
}

// New returns a Runner with the paper's defaults (Balanced weights,
// identity quality, 30 s buffer, horizon 5, normalization on).
func New(m *model.Manifest) *Runner {
	return &Runner{
		Manifest:  m,
		Weights:   model.Balanced,
		Quality:   model.QIdentity,
		Sim:       sim.DefaultConfig(),
		Normalize: true,
	}
}

// OptimalQoE returns the cached offline optimum for tr, computing it on
// first use.
func (r *Runner) OptimalQoE(tr *trace.Trace) (float64, error) {
	r.mu.Lock()
	if r.optCache == nil {
		r.optCache = make(map[*trace.Trace]float64)
	}
	if v, ok := r.optCache[tr]; ok {
		r.mu.Unlock()
		return v, nil
	}
	solver := r.Opt
	r.mu.Unlock()

	if solver == nil {
		s, err := optimal.NewSolver(r.Manifest, r.Weights, r.Quality, r.Sim.BufferMax)
		if err != nil {
			return 0, err
		}
		solver = s
	}
	v := solver.Solve(tr)

	r.mu.Lock()
	r.optCache[tr] = v
	r.mu.Unlock()
	return v, nil
}

// RunSession plays one trace with one algorithm.
func (r *Runner) RunSession(alg Algorithm, tr *trace.Trace) (Outcome, error) {
	return r.runSession(alg, tr, 0)
}

// runSession plays one trace; session is the index within a dataset run,
// stamped on decision events so concurrent sessions stay separable in a
// shared trace sink.
func (r *Runner) runSession(alg Algorithm, tr *trace.Trace, session int) (Outcome, error) {
	ctrl := alg.Factory(r.Manifest)
	pred := alg.Predictor(tr)
	cfg := r.Sim
	cfg.Startup = alg.Startup
	if r.Obs != nil {
		cfg.Obs = r.Obs.WithSession(session)
	}
	if r.PerSession != nil {
		r.PerSession(session, &cfg)
	}
	res, err := sim.Run(r.Manifest, tr, ctrl, pred, cfg)
	if err != nil {
		return Outcome{}, fmt.Errorf("runner: %s on %s: %w", alg.Name, tr.Name, err)
	}
	out := Outcome{
		Algorithm: alg.Name,
		TraceName: tr.Name,
		Session:   session,
		Result:    res,
		Metrics:   res.ComputeMetrics(r.Quality),
		QoE:       res.QoE(r.Weights, r.Quality),
		NormQoE:   math.NaN(),
		PredError: sessionPredError(res),
	}
	if r.Normalize {
		opt, err := r.OptimalQoE(tr)
		if err != nil {
			return Outcome{}, err
		}
		if opt != 0 { //lint:allow floateq exact-zero divisor guard for QoE normalization
			out.NormQoE = out.QoE / opt
		}
	}
	return out, nil
}

// RunDatasetFunc plays every trace with the algorithm in parallel,
// streaming each completed Outcome to visit instead of materializing the
// whole slice: a caller that reduces outcomes to aggregates holds
// O(in-flight) sessions, never O(dataset). visit is called from worker
// goroutines concurrently and must be safe for concurrent use;
// Outcome.Session carries the trace index for callers that need a
// deterministic reduction order.
//
// The run stops early when ctx is cancelled, when the Gate hook refuses
// an admission, or when a session fails: no further sessions launch,
// in-flight sessions finish (and are still visited on success), and the
// first error — or ctx.Err() — is returned. The fleet does not call it:
// its sessions run in its own pool over the same ForEach loop.
func (r *Runner) RunDatasetFunc(ctx context.Context, alg Algorithm, traces []*trace.Trace, visit func(Outcome)) error {
	// Runner-level progress instruments; every *obs method is nil-safe,
	// so a disabled registry costs nothing in the worker loop.
	var (
		reg      = r.Obs.Registry()
		done     = reg.Counter(MetricSessionsTotal, "Completed sessions.", "algorithm", alg.Name)
		busy     = reg.Gauge(MetricWorkersBusy, "Workers currently simulating a session.")
		sessThpt = reg.Histogram(MetricSessionKbps, "Per-session mean download throughput in kbps.", obs.DefKbpsBuckets)
	)
	return ForEach(ctx, len(traces), r.Workers, func(i int) error {
		if r.Gate != nil {
			d, err := r.Gate(ctx, i)
			if err != nil {
				return err
			}
			if d != nil {
				defer d()
			}
		}
		busy.Add(1)
		out, err := r.runSession(alg, traces[i], i)
		busy.Add(-1)
		done.Inc()
		if err != nil {
			return err
		}
		sessThpt.Observe(meanThroughput(out.Result))
		visit(out)
		return nil
	})
}

// ForEach calls fn(i) for every i in [0, n) on up to workers goroutines
// (0 means GOMAXPROCS). It stops dispatching once fn returns an error or
// ctx is done, waits for the calls in flight, and returns the first
// error fn returned, else ctx.Err(). Every index it dispatches reaches
// fn, so a caller that must account for each started index sees all of
// them.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, max(n, 1))
	var (
		wg       sync.WaitGroup
		idx      = make(chan int)
		stop     = make(chan struct{}) // closed on first failure: halts dispatch
		once     sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := fn(i); err != nil {
					once.Do(func() {
						firstErr = err
						close(stop)
					})
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n && ctx.Err() == nil; i++ {
		select {
		case idx <- i:
		case <-stop:
			break dispatch
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// RunDataset plays every trace with the algorithm, in parallel, and
// returns the outcomes in trace order.
func (r *Runner) RunDataset(alg Algorithm, traces []*trace.Trace) ([]Outcome, error) {
	outs := make([]Outcome, len(traces))
	// Workers write disjoint indices; no lock needed.
	err := r.RunDatasetFunc(context.Background(), alg, traces, func(o Outcome) { outs[o.Session] = o })
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// RunAll evaluates every algorithm over the dataset and returns outcomes
// keyed by algorithm name.
func (r *Runner) RunAll(algs []Algorithm, traces []*trace.Trace) (map[string][]Outcome, error) {
	result := make(map[string][]Outcome, len(algs))
	for _, alg := range algs {
		outs, err := r.RunDataset(alg, traces)
		if err != nil {
			return nil, err
		}
		result[alg.Name] = outs
	}
	return result, nil
}

// meanThroughput is the session's average realized download throughput.
func meanThroughput(res *model.SessionResult) float64 {
	if res == nil || len(res.Chunks) == 0 {
		return 0
	}
	var sum float64
	for _, c := range res.Chunks {
		sum += c.Throughput
	}
	return sum / float64(len(res.Chunks))
}

// sessionPredError is the per-session average absolute percentage
// prediction error plotted in Fig 7 (right).
func sessionPredError(res *model.SessionResult) float64 {
	var sum float64
	var n int
	for _, c := range res.Chunks {
		if c.Predicted > 0 && c.Throughput > 0 {
			sum += math.Abs(c.Predicted-c.Throughput) / c.Throughput
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Select extracts a per-session series from outcomes.
func Select(outs []Outcome, f func(Outcome) float64) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = f(o)
	}
	return xs
}
