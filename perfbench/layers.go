package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"mpcdash/internal/abr"
	"mpcdash/internal/abrsvc"
	"mpcdash/internal/core"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/fleet"
	"mpcdash/internal/model"
	"mpcdash/internal/obs"
	"mpcdash/internal/optimal"
	"mpcdash/internal/predictor"
	"mpcdash/internal/runner"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// layerMetric is one per-layer metric of BENCHMARK.json.
type layerMetric struct{ name, unit string }

// perLayer lists every metric a traced run reports, in output order. The
// README maps each to the end-to-end metric it explains.
var perLayer = []layerMetric{
	{"abrsvc.handler_decide_ns", "ns"},
	{"abrsvc.handler_decide_allocs", "count"},
	{"abrsvc.handler_decide_bytes", "bytes"},
	{"abrsvc.handler_session_ns", "ns"},
	{"abrsvc.handler_delete_ns", "ns"},
	{"abrsvc.handler_session_allocs", "count"},
	{"abrsvc.roundtrip_p50_us", "us"},
	{"abrsvc.roundtrip_p99_us", "us"},
	{"abrsvc.roundtrip_mean_us", "us"},
	{"abrsvc.serve_span_mean_us", "us"},
	{"abrsvc.server_request_p50_us", "us"},
	{"abrsvc.server_request_p99_us", "us"},
	{"abrsvc.server_request_mean_us", "us"},
	{"abrsvc.server_decide_p99_us", "us"},
	{"abrsvc.server_decide_mean_us", "us"},
	{"abrsvc.transport_us", "us"},
	{"abrsvc.residual_client_net_us", "us"},
	{"abrsvc.residual_mux_us", "us"},
	{"abrsvc.residual_request_us", "us"},
	{"abrsvc.residual_decide_us", "us"},
	{"abrsvc.shed", "count"},
	{"predictor.step_ns", "ns"},
	{"predictor.step_allocs", "count"},
	{"fastmpc.lookup_ns", "ns"},
	{"fastmpc.build_s", "s"},
	{"fastmpc.registry_hit_ns", "ns"},
	{"fastmpc.builds", "count"},
	{"core.plan_ns", "ns"},
	{"core.plan_allocs", "count"},
	{"sim.session_us.robustmpc", "us"},
	{"sim.session_us.fastmpc", "us"},
	{"sim.session_us.bb", "us"},
	{"trace.download_time_ns", "ns"},
	{"optimal.solve_s.fcc", "s"},
	{"optimal.solve_s.hsdpa", "s"},
	{"optimal.solve_s.synthetic", "s"},
	{"runner.session_us", "us"},
	{"runner.workers_busy_frac", "ratio"},
	{"fleet.new_s", "s"},
	{"fleet.run_overhead_frac", "ratio"},
	{"obs.histogram_observe_ns", "ns"},
	{"obs.counter_inc_ns", "ns"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"bench.untraced_throughput", "1/s"},
	{"bench.traced_throughput", "1/s"},
	{"bench.trace_overhead_frac", "ratio"},
}

// Metric names of the obs probe's private registry.
const (
	metricProbeSeconds = "mpcdash_perfbench_probe_seconds"
	metricProbeTotal   = "mpcdash_perfbench_probe_total"
)

// probeSeconds bounds each timed probe loop.
const probeSeconds = 0.3

// sink keeps probe results live so the compiler cannot drop the calls.
var sink float64

// tracedRun is the -trace 1 mode: half the time untraced, half traced
// (their ratio is the tracing overhead), then the layer probes. It fills
// m and returns the operations attempted and failed.
func tracedRun(name string, seed int64, seconds float64, e env, m map[string]float64) (attempted, failed int64, _ error) {
	var first error
	note := func(n int64, err error) {
		failed += n
		if err != nil && first == nil {
			first = err
		}
	}
	r0 := readRuntime()
	base := e.run(seconds/2, nil)
	r1 := readRuntime()
	tr := newTracer()
	traced := e.run(seconds/2, tr)
	attempted = base.ops + traced.ops
	note(base.failed, base.err)
	note(traced.failed, traced.err)
	note(e.check())

	m["runtime.gc_cpu_frac"] = (r1.gcCPU - r0.gcCPU) / (r1.totalCPU - r0.totalCPU)
	m["runtime.alloc_bytes_per_op"] = (r1.allocBytes - r0.allocBytes) / float64(base.ops)
	m["bench.untraced_throughput"] = base.rate
	m["bench.traced_throughput"] = traced.rate
	m["bench.trace_overhead_frac"] = 1 - traced.rate/base.rate
	printSelfTimes(os.Stderr, fmt.Sprintf("self time per span, %s traced phase:", name), tr.selfTimes())

	// The decide-path decomposition comes from decide-steady's own traced
	// phase; every other workload runs a short decide-steady probe for it.
	if se, ok := e.(*svcEnv); ok {
		se.svcLayers(tr, m)
		m["abrsvc.shed"] = se.shed()
	} else {
		pe, err := newSvcEnv(seed)
		if err != nil {
			return attempted, failed + 1, err
		}
		ptr := newTracer()
		pp := pe.run(1, ptr)
		note(pp.failed, pp.err)
		note(pe.check())
		pe.svcLayers(ptr, m)
		m["abrsvc.shed"] = pe.shed()
		pe.close()
	}
	note(probeLayers(seed, m))
	m["abrsvc.residual_decide_us"] = m["abrsvc.server_decide_mean_us"] - (m["predictor.step_ns"]+m["fastmpc.lookup_ns"])/1e3
	printDecomposition(m)
	if err := tr.writeSpans(fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", name, seed)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
	return attempted, failed, first
}

// printDecomposition explains the decide round trip layer by layer, with
// the residual each step leaves unexplained.
func printDecomposition(m map[string]float64) {
	rows := []struct{ what, key string }{
		{"Client.Decide round trip (mean)", "abrsvc.roundtrip_mean_us"},
		{"  client JSON + net/http + loopback", "abrsvc.residual_client_net_us"},
		{"  ServeHTTP span on the server", "abrsvc.serve_span_mean_us"},
		{"    mux routing + route counter", "abrsvc.residual_mux_us"},
		{"    request histogram (handleDecide)", "abrsvc.server_request_mean_us"},
		{"      JSON decode/encode, admission, store", "abrsvc.residual_request_us"},
		{"      decide histogram (session.decide)", "abrsvc.server_decide_mean_us"},
		{"        predictor step (probe)", "predictor.step_ns"},
		{"        table lookup (probe)", "fastmpc.lookup_ns"},
		{"        residual of session.decide", "abrsvc.residual_decide_us"},
	}
	fmt.Fprintln(os.Stderr, "decide round trip decomposition, µs:")
	for _, r := range rows {
		v := m[r.key]
		if r.key == "predictor.step_ns" || r.key == "fastmpc.lookup_ns" {
			v /= 1e3
		}
		fmt.Fprintf(os.Stderr, "  %-44s %10.3f\n", r.what, v)
	}
	sum := m["abrsvc.residual_client_net_us"] + m["abrsvc.residual_mux_us"] + m["abrsvc.residual_request_us"] +
		m["abrsvc.residual_decide_us"] + (m["predictor.step_ns"]+m["fastmpc.lookup_ns"])/1e3
	fmt.Fprintf(os.Stderr, "  %-44s %10.3f (round trip %.3f)\n", "sum of the parts", sum, m["abrsvc.roundtrip_mean_us"])
}

// probeLayers times each layer's public functions on seeded inputs. Every
// workload runs the same probes, so on a workload that does not run a
// layer, that layer's metric is expected to stay flat.
func probeLayers(seed int64, m map[string]float64) (int64, error) {
	opt, spec, err := tableConfig()
	if err != nil {
		return 1, err
	}
	table, err := fastmpc.Shared.Table(opt, spec)
	if err != nil {
		return 1, err
	}
	rng := rand.New(rand.NewSource(seed))
	traces := append(trace.Dataset(trace.FCC, 16, 65*4+120, seed), trace.Dataset(trace.HSDPA, 16, 65*4+120, seed)...)

	var failed int64
	var first error
	note := func(n int64, err error) {
		failed += n
		if err != nil && first == nil {
			first = err
		}
	}
	note(probeHandler(rng, m))
	probePredictor(traces, m)
	probeLookup(table, rng, m)
	probeRegistry(opt, spec, m)
	states := recordStates(traces[:8])
	probePlan(opt, states, m)
	note(probeSim(traces, m))
	probeDownload(traces, rng, m)
	note(probeOptimal(m))
	note(probeRunner(traces, m))
	note(probeFleet(seed, traces, m))
	probeObs(rng, m)
	return failed, first
}

// timeLoop calls body(i) in batches until probeSeconds have passed and
// returns ns per call and the number of calls.
func timeLoop(batch int, body func(i int)) (float64, int) {
	n := 0
	t0 := time.Now()
	for time.Since(t0).Seconds() < probeSeconds {
		for j := 0; j < batch; j++ {
			body(n)
			n++
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), n
}

// probeHandler times Service.Handler().ServeHTTP in process, including
// httptest request building, for decide and for register+delete pairs.
func probeHandler(rng *rand.Rand, m map[string]float64) (int64, error) {
	h := abrsvc.New(abrsvc.Config{}).Handler()
	serve := func(method, path string, body []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code
	}
	const sessions = 16
	for s := 0; s < sessions; s++ {
		if code := serve(http.MethodPost, "/v1/session", fmt.Appendf(nil, `{"id":"p%d","config":{"robust":%t}}`, s, s%2 == 1)); code != http.StatusOK {
			return 1, fmt.Errorf("handler probe: register status %d", code)
		}
	}
	var bad int64
	var buf []byte
	am := startAllocs()
	ns, n := timeLoop(64, func(i int) {
		buf = fmt.Appendf(buf[:0], `{"session":"p%d","chunk":%d,"buffer":%.3f,"prev_level":%d,"throughput_samples":[%.1f]}`,
			i%sessions, i/sessions, rng.Float64()*30, i%7-1, 300+rng.Float64()*3000)
		if serve(http.MethodPost, "/v1/decide", buf) != http.StatusOK {
			bad++
		}
	})
	m["abrsvc.handler_decide_ns"] = ns
	m["abrsvc.handler_decide_allocs"], m["abrsvc.handler_decide_bytes"] = am.perOp(n)

	var regNS, delNS float64
	am = startAllocs()
	_, n = timeLoop(16, func(i int) {
		t0 := time.Now()
		if serve(http.MethodPost, "/v1/session", fmt.Appendf(buf[:0], `{"id":"q%d","config":{"robust":%t}}`, i, i%2 == 1)) != http.StatusOK {
			bad++
		}
		t1 := time.Now()
		if serve(http.MethodDelete, fmt.Sprintf("/v1/session/q%d", i), nil) != http.StatusNoContent {
			bad++
		}
		regNS += float64(t1.Sub(t0).Nanoseconds())
		delNS += float64(time.Since(t1).Nanoseconds())
	})
	m["abrsvc.handler_session_allocs"], _ = am.perOp(n)
	m["abrsvc.handler_session_ns"] = regNS / float64(n)
	m["abrsvc.handler_delete_ns"] = delNS / float64(n)
	if bad > 0 {
		return bad, fmt.Errorf("handler probe: %d requests failed", bad)
	}
	return 0, nil
}

// probePredictor times one decide's predictor work: ErrorTracked Observe,
// Predict and LowerBound over a harmonic-mean window of 5.
func probePredictor(traces []*trace.Trace, m map[string]float64) {
	p := predictor.NewErrorTracked(predictor.NewHarmonicMean(5), 5)
	tr := traces[len(traces)-1]
	am := startAllocs()
	ns, n := timeLoop(1024, func(i int) {
		p.Observe(tr.RateAt(4 * float64(i%90)))
		sink += p.Predict(5)[0] + p.LowerBound(5)[0]
	})
	m["predictor.step_ns"] = ns
	m["predictor.step_allocs"], _ = am.perOp(n)
}

// probeLookup times CompressedTable.Lookup on decide-steady-like states.
func probeLookup(table *fastmpc.CompressedTable, rng *rand.Rand, m map[string]float64) {
	const states = 4096
	buf, rate := make([]float64, states), make([]float64, states)
	for i := range buf {
		buf[i], rate[i] = rng.Float64()*30, 100+rng.Float64()*4000
	}
	var acc int
	m["fastmpc.lookup_ns"], _ = timeLoop(states, func(i int) {
		j := i % states
		acc += table.Lookup(buf[j], j%7-1, rate[j])
	})
	sink += float64(acc)
}

// probeRegistry times a registry hit: key hashing plus the resident-table
// lookup every registration pays.
func probeRegistry(opt *core.Optimizer, spec fastmpc.BinSpec, m map[string]float64) {
	m["fastmpc.registry_hit_ns"], _ = timeLoop(64, func(int) {
		if t, err := fastmpc.Shared.Table(opt, spec); err == nil {
			sink += float64(t.Runs())
		}
	})
}

// stateRecorder wraps a controller and keeps a copy of every state it is
// asked to decide.
type stateRecorder struct {
	abr.Controller
	states []abr.State
}

func (r *stateRecorder) Decide(s abr.State) abr.Decision {
	c := s
	c.Forecast = append([]float64(nil), s.Forecast...)
	c.Lower = append([]float64(nil), s.Lower...)
	r.states = append(r.states, c)
	return r.Controller.Decide(s)
}

// recordStates plays RobustMPC sessions, as fleet-sim does, and returns
// the states its optimizer was asked to solve.
func recordStates(traces []*trace.Trace) []abr.State {
	m := model.EnvivioManifest()
	alg := runner.StandardSet(model.Balanced, model.QIdentity, 30, 5)[3] // RobustMPC
	var states []abr.State
	for _, tr := range traces {
		rec := &stateRecorder{Controller: alg.Factory(m)}
		cfg := sim.DefaultConfig()
		cfg.Startup = alg.Startup
		if _, err := sim.Run(m, tr, rec, alg.Predictor(tr), cfg); err == nil {
			states = append(states, rec.states...)
		}
	}
	return states
}

// probePlan times Optimizer.PlanScratch on recorded RobustMPC states.
func probePlan(opt *core.Optimizer, states []abr.State, m map[string]float64) {
	if len(states) == 0 {
		return
	}
	var sc core.Scratch
	am := startAllocs()
	ns, n := timeLoop(64, func(i int) {
		s := states[i%len(states)]
		f := s.Forecast
		if len(s.Lower) > 0 {
			f = s.Lower
		}
		lvl, _, _ := opt.PlanScratch(&sc, s.Chunk, s.Buffer, s.Prev, f, s.Startup)
		sink += float64(lvl)
	})
	m["core.plan_ns"] = ns
	m["core.plan_allocs"], _ = am.perOp(n)
}

// probeSim times sim.Run per controller over whole 65-chunk sessions.
func probeSim(traces []*trace.Trace, m map[string]float64) (int64, error) {
	man := model.EnvivioManifest()
	for _, alg := range runner.StandardSet(model.Balanced, model.QIdentity, 30, 5) {
		var key string
		switch alg.Name {
		case "RobustMPC":
			key = "sim.session_us.robustmpc"
		case "FastMPC":
			key = "sim.session_us.fastmpc"
		case "BB":
			key = "sim.session_us.bb"
		default:
			continue
		}
		var durs []float64
		t0 := time.Now()
		for i := 0; time.Since(t0).Seconds() < probeSeconds || i < len(traces); i++ {
			tr := traces[i%len(traces)]
			cfg := sim.DefaultConfig()
			cfg.Startup = alg.Startup
			ctrl, pred := alg.Factory(man), alg.Predictor(tr)
			s0 := time.Now()
			_, err := sim.Run(man, tr, ctrl, pred, cfg)
			durs = append(durs, float64(time.Since(s0).Nanoseconds())/1e3)
			if err != nil {
				return 1, err
			}
		}
		m[key] = median(durs)
	}
	return 0, nil
}

// probeDownload times Trace.DownloadTime at random session times and
// chunk sizes.
func probeDownload(traces []*trace.Trace, rng *rand.Rand, m map[string]float64) {
	const calls = 4096
	at, size := make([]float64, calls), make([]float64, calls)
	ladder := model.EnvivioLadder()
	for i := range at {
		at[i], size[i] = rng.Float64()*300, 4*ladder[rng.Intn(len(ladder))]
	}
	m["trace.download_time_ns"], _ = timeLoop(calls, func(i int) {
		j := i % calls
		sink += traces[j%len(traces)].DownloadTime(at[j], size[j])
	})
}

// probeOptimal times Solver.Solve on the paper-fig8 traces, one per
// dataset, exactly as Fig8 generates them.
func probeOptimal(m map[string]float64) (int64, error) {
	man := model.EnvivioManifest()
	s, err := optimal.NewSolver(man, model.Balanced, model.QIdentity, 30)
	if err != nil {
		return 1, err
	}
	dur := man.Duration() + 120
	for i, k := range []struct {
		key  string
		kind trace.DatasetKind
	}{{"optimal.solve_s.fcc", trace.FCC}, {"optimal.solve_s.hsdpa", trace.HSDPA}, {"optimal.solve_s.synthetic", trace.Synthetic}} {
		tr := trace.Dataset(k.kind, 1, dur, fig8Seed+int64(i))[0]
		t0 := time.Now()
		v := s.Solve(tr)
		m[k.key] = time.Since(t0).Seconds()
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return 1, fmt.Errorf("optimal probe: %s solved to %v", k.key, v)
		}
	}
	return 0, nil
}

// probeRunner times Runner.RunSession through the dataset worker pool:
// the Gate hook opens a span when a worker starts a session and its done
// callback closes it, so busy time per worker is measured, and idle time
// left by stragglers shows as a busy fraction below 1.
func probeRunner(traces []*trace.Trace, m map[string]float64) (int64, error) {
	r := runner.New(model.EnvivioManifest())
	r.Normalize = false
	workers := runtime.GOMAXPROCS(0)
	r.Workers = workers
	alg := runner.StandardSet(model.Balanced, model.QIdentity, 30, 5)[3] // RobustMPC
	set := make([]*trace.Trace, 4*len(traces))
	for i := range set {
		set[i] = traces[i%len(traces)]
	}
	starts, ends := make([]time.Time, len(set)), make([]time.Time, len(set))
	r.Gate = func(_ context.Context, i int) (func(), error) {
		starts[i] = time.Now()
		return func() { ends[i] = time.Now() }, nil
	}
	t0 := time.Now()
	err := r.RunDatasetFunc(context.Background(), alg, set, func(runner.Outcome) {})
	wall := time.Since(t0).Seconds()
	if err != nil {
		return 1, err
	}
	durs := make([]float64, len(set))
	var busy float64
	for i := range set {
		d := ends[i].Sub(starts[i]).Seconds()
		durs[i] = d * 1e6
		busy += d
	}
	m["runner.session_us"] = median(durs)
	m["runner.workers_busy_frac"] = busy / (float64(workers) * wall)
	return 0, nil
}

// probeFleet times fleet.New on the fleet-sim scenario, and estimates
// how much of a Fleet.Run is spent outside sessions. The same populations
// are first played on bare runners, one population at a time with one
// worker per CPU, over traces and watch times drawn like the fleet's;
// their summed session spans S are the simulation work. The fleet then
// runs the scenario in wall time W, and the overhead is 1 - S/(W·CPUs):
// admission, aggregation and idle workers.
func probeFleet(seed int64, traces []*trace.Trace, m map[string]float64) (int64, error) {
	sc := fleetScenario(seed, fleetPerPop/2)
	var news []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := fleet.New(sc, fleet.Options{}); err != nil {
			return 1, err
		}
		news = append(news, time.Since(t0).Seconds())
	}
	m["fleet.new_s"] = median(news)

	man := model.EnvivioManifest()
	cpus := runtime.GOMAXPROCS(0)
	algs := map[string]runner.Algorithm{}
	for _, a := range runner.StandardSet(model.Balanced, model.QIdentity, 30, 5) {
		algs[a.Name] = a
	}
	rng := rand.New(rand.NewSource(seed))
	var work float64
	for _, pop := range sc.Populations {
		set := make([]*trace.Trace, pop.Sessions)
		watch := make([]int, pop.Sessions)
		for i := range set {
			set[i] = traces[rng.Intn(len(traces))]
			watch[i] = pop.Watch.MinChunks + rng.Intn(pop.Watch.MaxChunks-pop.Watch.MinChunks+1)
		}
		r := runner.New(man)
		r.Normalize = false
		r.Workers = cpus
		r.PerSession = func(i int, cfg *sim.Config) { cfg.MaxChunks = watch[i] }
		starts, ends := make([]time.Time, len(set)), make([]time.Time, len(set))
		r.Gate = func(_ context.Context, i int) (func(), error) {
			starts[i] = time.Now()
			return func() { ends[i] = time.Now() }, nil
		}
		if err := r.RunDatasetFunc(context.Background(), algs[pop.Algorithm], set, func(runner.Outcome) {}); err != nil {
			return 1, err
		}
		for i := range set {
			work += ends[i].Sub(starts[i]).Seconds()
		}
	}
	f, err := fleet.New(sc, fleet.Options{})
	if err != nil {
		return 1, err
	}
	t0 := time.Now()
	if _, err := f.Run(context.Background()); err != nil {
		return 1, err
	}
	m["fleet.run_overhead_frac"] = 1 - work/(time.Since(t0).Seconds()*float64(cpus))
	return 0, nil
}

// probeObs times the metric updates every decide makes: two histogram
// observations and two counter increments.
func probeObs(rng *rand.Rand, m map[string]float64) {
	reg := obs.NewRegistry()
	h := reg.Histogram(metricProbeSeconds, "perfbench probe latency.", obs.ExpBuckets(1e-6, 2, 20))
	c := reg.Counter(metricProbeTotal, "perfbench probe events.")
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = 1e-6 * math.Exp(rng.Float64()*6)
	}
	m["obs.histogram_observe_ns"], _ = timeLoop(len(vals), func(i int) { h.Observe(vals[i%len(vals)]) })
	m["obs.counter_inc_ns"], _ = timeLoop(1024, func(int) { c.Inc() })
	sink += h.Sum() + float64(c.Value())
}
