// Package fleet is the load-generation and session-orchestration layer:
// it drives tens of thousands of emulated or simulated player sessions in
// one process from a declarative scenario — per-population arrival
// processes, algorithm choice, trace mixes and churn — with admission
// control (arrival pacing, max in-flight sessions), graceful
// drain on context cancellation, and streaming per-population aggregation
// whose memory stays O(populations), never O(sessions). It is the
// population-scale counterpart of the single-session evaluation in Sec 7:
// the subsystem that answers "what does RobustMPC vs. BB look like across
// 100k churning viewers?" rather than "across 100 traces".
package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpcdash/internal/model"
	"mpcdash/internal/obs"
	"mpcdash/internal/runner"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// Fleet metric names on the shared registry (per-population series carry
// a population label).
const (
	MetricInflight       = "mpcdash_fleet_sessions_inflight"
	MetricLaunchedTotal  = "mpcdash_fleet_sessions_launched_total"
	MetricCompletedTotal = "mpcdash_fleet_sessions_completed_total"
	MetricAbandonedTotal = "mpcdash_fleet_sessions_abandoned_total"
	MetricErrorsTotal    = "mpcdash_fleet_sessions_errors_total"
	MetricQoEPerChunk    = "mpcdash_fleet_session_qoe_per_chunk"
	MetricRebufferSec    = "mpcdash_fleet_session_rebuffer_seconds"
)

// Backend names.
const (
	BackendSim = "sim" // in-process simulator (default)
	BackendEmu = "emu" // loopback HTTP emulation with shaped links
	BackendSvc = "svc" // simulated playback, decisions from a live abrd over HTTP
)

// Options configure a fleet run beyond what the scenario declares.
type Options struct {
	// Backend selects BackendSim (default) or BackendEmu.
	Backend string
	// Registry receives live gauges, counters and per-population QoE
	// histograms; nil disables metrics entirely.
	Registry *obs.Registry
	// EmuTimeScale compresses emulated sessions (media seconds per wall
	// second); 0 selects 20.
	EmuTimeScale float64
	// SvcURL points the svc backend at an external abrd deployment; ""
	// self-hosts a decision service on 127.0.0.1:0 for the run.
	SvcURL string
}

// Fleet is one prepared scenario run: trace pool and manifest built,
// admission limits armed, aggregation ready.
type Fleet struct {
	sc       *Scenario
	opt      Options
	manifest *model.Manifest
	weights  model.Weights
	pool     map[string][]*trace.Trace

	sem      chan struct{} // admission: max in-flight sessions
	inflight *obs.Gauge

	svc *svcEnv       // decision-service wiring, svc backend only
	rec *obs.Recorder // client-side decision recorder; nil without a registry and on svc

	pops []*popState
}

// popState is the per-population orchestration state.
type popState struct {
	pop  *Population
	alg  runner.Algorithm
	seed uint64 // per-population derivation seed

	kinds []string  // trace-mix kinds, canonical order
	cumw  []float64 // cumulative normalized weights over kinds

	arr         *arrivalClock
	arrivalSpan float64 // seed-derived offset of the last planned arrival

	ot       *orderedTally
	launched atomic.Int64
	errors   atomic.Int64

	mLaunched, mCompleted, mAbandoned, mErrors *obs.Counter
	mQoE, mRebuf                               *obs.Histogram
}

// New validates the scenario and prepares a run: builds the shared
// manifest and trace pool and arms the admission limits.
func New(sc *Scenario, opt Options) (*Fleet, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	switch opt.Backend {
	case "", BackendSim:
		opt.Backend = BackendSim
	case BackendEmu:
	case BackendSvc:
		// The decision service only implements the table-lookup family.
		for i := range sc.Populations {
			p := &sc.Populations[i]
			if _, ok := svcAlgorithms[strings.ToLower(p.Algorithm)]; !ok {
				return nil, fmt.Errorf("fleet: population %q: algorithm %q has no service-side implementation (svc backend supports FastMPC, RobustMPC, RobustFastMPC)",
					p.Name, p.Algorithm)
			}
		}
	default:
		return nil, fmt.Errorf("fleet: unknown backend %q", opt.Backend)
	}
	if opt.EmuTimeScale <= 0 {
		opt.EmuTimeScale = 20
	}
	v := sc.video()
	manifest, err := model.NewCBRManifest(model.Ladder(v.LadderKbps), v.Chunks, v.ChunkSec)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	algs, err := sc.algorithms()
	if err != nil {
		return nil, err
	}

	f := &Fleet{
		sc:       sc,
		opt:      opt,
		manifest: manifest,
		weights:  sc.weights(),
		pool:     buildTracePool(sc, manifest.Duration()),
	}
	maxInFlight := sc.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	f.sem = make(chan struct{}, maxInFlight)
	f.inflight = opt.Registry.Gauge(MetricInflight, "Sessions currently playing.")
	if opt.Registry != nil && opt.Backend != BackendSvc {
		f.rec = obs.NewRecorder(opt.Registry, nil)
	}

	for i := range sc.Populations {
		p := &sc.Populations[i]
		ps := &popState{
			pop:  p,
			alg:  algs[p.Name],
			seed: splitmix64(uint64(sc.Seed) ^ splitmix64(uint64(i)+0x9E3779B9)),
			ot:   newOrderedTally(),
		}
		ps.kinds, ps.cumw = p.mixKinds()
		ps.arr = newArrivalClock(p.Arrival, int64(splitmix64(ps.seed^0xA1)>>1))
		ps.arrivalSpan = plannedArrivalSpan(p.Arrival, int64(splitmix64(ps.seed^0xA1)>>1), p.Sessions)
		reg := opt.Registry
		ps.mLaunched = reg.Counter(MetricLaunchedTotal, "Sessions admitted and started.", "population", p.Name)
		ps.mCompleted = reg.Counter(MetricCompletedTotal, "Sessions that finished playback.", "population", p.Name)
		ps.mAbandoned = reg.Counter(MetricAbandonedTotal, "Sessions whose viewer left on the abandon-rebuffer policy.", "population", p.Name)
		ps.mErrors = reg.Counter(MetricErrorsTotal, "Sessions that failed with a transport or backend error.", "population", p.Name)
		ps.mQoE = reg.Histogram(MetricQoEPerChunk, "Per-chunk-normalized session QoE (kbps-equivalent).",
			obs.LinearBuckets(-4000, 500, 17), "population", p.Name)
		ps.mRebuf = reg.Histogram(MetricRebufferSec, "Total stall seconds per session.",
			obs.DefTimeBuckets, "population", p.Name)
		f.pops = append(f.pops, ps)
	}
	return f, nil
}

// buildTracePool generates the shared pool for every dataset kind some
// population references, deterministically from the scenario seed.
func buildTracePool(sc *Scenario, videoDur float64) map[string][]*trace.Trace {
	perKind := sc.TracePool.PerKind
	if perKind <= 0 {
		perKind = 64
	}
	dur := sc.TracePool.DurationSec
	if dur <= 0 {
		dur = videoDur + 120
	}
	pool := make(map[string][]*trace.Trace)
	for i := range sc.Populations {
		kinds, _ := sc.Populations[i].mixKinds()
		for _, kind := range kinds {
			if _, ok := pool[kind]; ok {
				continue
			}
			// Seed each kind from the scenario seed and a stable kind
			// tag so adding a population never reshuffles another
			// kind's pool.
			k, _ := trace.ParseKind(kind) // Validate accepted every kind
			tag := uint64(k)<<32 + 0xF1EE7
			seed := int64(splitmix64(uint64(sc.Seed)^tag) >> 33)
			pool[kind] = trace.Dataset(k, perKind, dur, seed)
		}
	}
	return pool
}

// Run executes the scenario: every population launches its sessions
// through the shared admission gate, aggregates stream into per-population
// tallies, and the final report is assembled when the last session ends.
// On context cancellation the fleet drains gracefully — no new sessions
// launch, in-flight sessions finish and are aggregated — and Run returns
// the partial report together with ctx's error.
func (f *Fleet) Run(ctx context.Context) (*Report, error) {
	if f.opt.Backend == BackendSvc {
		env, err := f.startSvc(ctx)
		if err != nil {
			return f.buildReport(), err
		}
		f.svc = env
		defer func() {
			// Drain the self-hosted service even when the run was
			// cancelled: in-flight decides finish, then the sink flushes.
			dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
			defer cancel()
			_ = env.close(dctx)
		}()
	}
	play := f.playSimSession
	switch f.opt.Backend {
	case BackendEmu:
		play = f.playEmuSession
	case BackendSvc:
		play = f.playSvcSession
	}
	var wg sync.WaitGroup
	errs := make([]error, len(f.pops))
	for i, ps := range f.pops {
		wg.Add(1)
		go func(i int, ps *popState) {
			defer wg.Done()
			errs[i] = f.runPop(ctx, ps, play)
		}(i, ps)
	}
	wg.Wait()
	report := f.buildReport()
	for _, err := range errs {
		if err != nil {
			return report, err
		}
	}
	return report, nil
}

// workersPerPop bounds each population's worker pool: simulator sessions
// are CPU-bound (no point past GOMAXPROCS), emulated ones wall-clock
// bound (more concurrency, still bounded — each holds a socket pair).
// Service-backed sessions are cheap request loops, so the svc backend
// lets the admission semaphore alone set the concurrency — that is what
// "N concurrent sessions against a live abrd" means.
func (f *Fleet) workersPerPop() int {
	limit := runtime.GOMAXPROCS(0)
	if f.opt.Backend == BackendEmu {
		limit = 32
	}
	if f.opt.Backend == BackendSvc {
		limit = cap(f.sem)
	}
	if cap(f.sem) < limit {
		limit = cap(f.sem)
	}
	if limit < 1 {
		limit = 1
	}
	return limit
}

// playFunc plays one admitted session on a backend: session is its index
// within the population, tr its trace and cfg its player configuration.
type playFunc func(ctx context.Context, ps *popState, session int, tr *trace.Trace, cfg sim.Config) (*model.SessionResult, error)

// sessionHook, when non-nil, receives every completed session's log
// before aggregation, on every backend. Tests use it to capture
// per-session decision sequences; it must be safe for concurrent calls.
var sessionHook func(pop string, session int, res *model.SessionResult)

// runPop drives one population through its backend's play function: a
// pool of workers each admits a session, plays it, and streams the result
// into the aggregate. A failed session does not abort the population — it
// is counted on the errors series and the run continues, as a load
// generator must against a flaky backend. Only cancellation stops the
// population.
func (f *Fleet) runPop(ctx context.Context, ps *popState, play playFunc) error {
	return runner.ForEach(ctx, ps.pop.Sessions, f.workersPerPop(), func(i int) error {
		cfg := f.sessionConfig(ps, i)
		done, err := f.admit(ctx, ps)
		var res *model.SessionResult
		if err == nil {
			res, err = play(ctx, ps, i, ps.traceFor(i, f.pool), cfg)
			done()
		}
		if err != nil {
			ps.ot.add(i, nil)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			ps.errors.Add(1)
			ps.mErrors.Inc()
			return nil
		}
		if sessionHook != nil {
			sessionHook(ps.pop.Name, i, res)
		}
		f.complete(ps, ps.stats(res, f.weights, cfg.MaxChunks), i)
		return nil
	})
}

// sessionConfig is session i's player configuration on every backend:
// the scenario's buffer and horizon, the algorithm's startup policy, the
// viewer's watch length and abandon threshold, and the fleet's recorder
// stamped with the session index.
func (f *Fleet) sessionConfig(ps *popState, i int) sim.Config {
	return sim.Config{
		BufferMax:       f.sc.bufferMax(),
		Horizon:         f.sc.horizon(),
		Startup:         ps.alg.Startup,
		MaxChunks:       ps.watchFor(i, f.manifest.ChunkCount),
		AbandonRebuffer: ps.pop.AbandonRebufferSec,
		Obs:             f.rec.WithSession(i),
	}
}

// playSimSession plays one session in the trace-driven simulator.
func (f *Fleet) playSimSession(_ context.Context, ps *popState, _ int, tr *trace.Trace, cfg sim.Config) (*model.SessionResult, error) {
	return sim.Run(f.manifest, tr, ps.alg.Factory(f.manifest), ps.alg.Predictor(tr), cfg)
}

// admit is the launch gate every session passes: arrival-process pacing,
// then an in-flight slot. The returned done callback releases the slot.
func (f *Fleet) admit(ctx context.Context, ps *popState) (func(), error) {
	if err := ps.arr.wait(ctx); err != nil {
		return nil, err
	}
	select {
	case f.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	ps.launched.Add(1)
	ps.mLaunched.Inc()
	f.inflight.Add(1)
	return func() {
		<-f.sem
		f.inflight.Add(-1)
	}, nil
}

// complete streams one finished session into the population aggregate
// and the live metrics.
func (f *Fleet) complete(ps *popState, s sessionStats, session int) {
	ps.mCompleted.Inc()
	if s.abandoned {
		ps.mAbandoned.Inc()
	}
	if s.chunks > 0 {
		ps.mQoE.Observe(s.qoe / float64(s.chunks))
	}
	ps.mRebuf.Observe(s.rebuffer)
	ps.ot.add(session, &s)
}

// stats reduces one finished session to the scalars the aggregate keeps.
// The viewer abandoned the session when the rebuffer policy cut it short of
// its watched chunks.
func (ps *popState) stats(res *model.SessionResult, w model.Weights, watched int) sessionStats {
	m := res.ComputeMetrics(model.QIdentity)
	return sessionStats{
		chunks:   len(res.Chunks),
		qoe:      res.QoE(w, model.QIdentity),
		bitrate:  m.AvgBitrate,
		rebuffer: m.RebufferTime,
		switches: float64(m.Switches),
		startup:  m.StartupDelay,
		abandoned: ps.pop.AbandonRebufferSec > 0 &&
			m.RebufferTime >= ps.pop.AbandonRebufferSec &&
			len(res.Chunks) < watched,
	}
}

// traceFor deterministically assigns session i a trace: the mix picks the
// kind, a second hash stream the pool index. Assignment is a pure
// function of (population seed, session index), independent of execution
// order.
func (ps *popState) traceFor(i int, pool map[string][]*trace.Trace) *trace.Trace {
	kind := ps.kinds[0]
	if len(ps.kinds) > 1 {
		u := sessionU01(ps.seed, i, 1)
		for k, cum := range ps.cumw {
			if u < cum {
				kind = ps.kinds[k]
				break
			}
			kind = ps.kinds[k]
		}
	}
	traces := pool[kind]
	idx := int(sessionU01(ps.seed, i, 2) * float64(len(traces)))
	if idx >= len(traces) {
		idx = len(traces) - 1
	}
	return traces[idx]
}

// watchFor deterministically draws session i's watch duration in chunks.
func (ps *popState) watchFor(i, videoChunks int) int {
	switch ps.pop.Watch.Dist {
	case "fixed":
		return ps.pop.Watch.Chunks
	case "uniform":
		lo, hi := ps.pop.Watch.MinChunks, ps.pop.Watch.MaxChunks
		n := lo + int(sessionU01(ps.seed, i, 3)*float64(hi-lo+1))
		if n > hi {
			n = hi
		}
		return n
	default: // "", "full"
		return videoChunks
	}
}

// ---- seed derivation ------------------------------------------------

// splitmix64 is the SplitMix64 mixing function: a high-quality, stateless
// 64-bit hash used to derive independent per-population and per-session
// random streams from one scenario seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// sessionU01 derives a uniform [0,1) value for (session, stream) from the
// population seed — stateless, so any worker can evaluate any session's
// draw without coordination.
func sessionU01(seed uint64, session int, stream uint64) float64 {
	v := splitmix64(seed ^ (uint64(session)+1)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03)
	return float64(v>>11) / (1 << 53)
}

// ---- arrival pacing and admission ----------------------------------

// arrivalClock paces session launches according to the population's
// arrival process. Gaps are drawn from a seeded sequential RNG under the
// lock; because arrival offsets are cumulative, the total span is the sum
// of the drawn gaps and therefore seed-determined regardless of which
// worker consumes which draw.
type arrivalClock struct {
	mu   sync.Mutex
	rng  *rand.Rand
	proc string
	rate float64
	next time.Time
}

func newArrivalClock(a Arrival, seed int64) *arrivalClock {
	return &arrivalClock{
		rng:  rand.New(rand.NewSource(seed)),
		proc: a.Process,
		rate: a.RatePerSec,
	}
}

// gap draws the next inter-arrival time in seconds.
func (a *arrivalClock) gap() float64 {
	switch a.proc {
	case "poisson":
		return a.rng.ExpFloat64() / a.rate
	case "ramp":
		return 1 / a.rate
	default: // "", "asap"
		return 0
	}
}

// wait blocks until the caller's arrival instant (or ctx cancellation).
func (a *arrivalClock) wait(ctx context.Context) error {
	if a.proc == "" || a.proc == "asap" {
		return ctx.Err()
	}
	a.mu.Lock()
	now := time.Now()
	if a.next.IsZero() {
		a.next = now
	}
	at := a.next
	a.next = at.Add(time.Duration(a.gap() * float64(time.Second)))
	a.mu.Unlock()
	return sleepUntil(ctx, at)
}

// plannedArrivalSpan computes the seed-derived offset of the last arrival
// (seconds after the first) — the same draws wait() will consume, summed
// without running anything.
func plannedArrivalSpan(a Arrival, seed int64, sessions int) float64 {
	if sessions <= 1 {
		return 0
	}
	switch a.Process {
	case "ramp":
		return float64(sessions-1) / a.RatePerSec
	case "poisson":
		rng := rand.New(rand.NewSource(seed))
		var span float64
		for i := 0; i < sessions-1; i++ {
			span += rng.ExpFloat64() / a.RatePerSec
		}
		return span
	default:
		return 0
	}
}

// sleepUntil sleeps until t or ctx cancellation.
func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
