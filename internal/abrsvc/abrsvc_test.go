package abrsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpcdash/internal/abr"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/httpstrict"
	"mpcdash/internal/model"
	"mpcdash/internal/obs"
	"mpcdash/internal/predictor"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// startTestService spins up a service on an httptest server and returns a
// typed client for it. The table registry is private per test so builds
// and stats never leak across tests, and the handler runs behind
// httpstrict, so a WriteHeader after the response is committed fails the
// test.
func startTestService(t *testing.T, cfg Config) (*Service, *Client) {
	t.Helper()
	if cfg.Tables == nil {
		cfg.Tables = fastmpc.NewRegistry()
	}
	svc := New(cfg)
	hs := httptest.NewServer(httpstrict.Middleware(t)(svc.Handler()))
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL)
	t.Cleanup(c.CloseIdle)
	return svc, c
}

func TestResolveConfigDefaults(t *testing.T) {
	rc, err := resolveConfig(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(rc.ladder), fmt.Sprint(model.EnvivioLadder()); got != want {
		t.Errorf("default ladder = %s, want %s", got, want)
	}
	if rc.chunks != 65 || rc.chunkSec != 4 || rc.bufferMax != 30 || rc.horizon != 5 || rc.window != 5 {
		t.Errorf("paper defaults not applied: %+v", rc)
	}
	if rc.weights != model.Balanced {
		t.Errorf("default weights = %+v, want Balanced", rc.weights)
	}
	if rc, err := resolveConfig(SessionConfig{Weights: "avoid_rebuffering"}); err != nil || rc.weights != model.AvoidRebuffering {
		t.Errorf("avoid_rebuffering preset: weights %+v, err %v", rc.weights, err)
	}
	for _, bad := range []SessionConfig{
		{Weights: "nope"},
		{LadderKbps: []float64{1000, 500}}, // not ascending
		{Chunks: -1},
	} {
		if _, err := resolveConfig(bad); err == nil {
			t.Errorf("resolveConfig(%+v) accepted invalid config", bad)
		}
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, c := startTestService(t, Config{})
	ctx := context.Background()

	reg, err := c.Register(ctx, SessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Session == "" || reg.Levels != 5 || reg.TableKey == "" {
		t.Fatalf("unexpected registration ack: %+v", reg)
	}

	// A named registration is honoured; repeating it conflicts.
	if _, err := c.Register(ctx, SessionRequest{ID: "viewer-1"}); err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	if _, err := c.Register(ctx, SessionRequest{ID: "viewer-1"}); !errors.As(err, &apiErr) || apiErr.Status != 409 {
		t.Fatalf("duplicate registration: got %v, want 409", err)
	}

	d0, err := c.Decide(ctx, DecideRequest{Session: reg.Session, Chunk: 0, Buffer: 0, PrevLevel: -1})
	if err != nil {
		t.Fatal(err)
	}
	if d0.Level < 0 || d0.Level >= reg.Levels || d0.Replayed {
		t.Fatalf("chunk 0 decision out of range: %+v", d0)
	}
	d1, err := c.Decide(ctx, DecideRequest{
		Session: reg.Session, Chunk: 1, Buffer: 4, PrevLevel: d0.Level,
		ThroughputSamples: []float64{2400},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d1.PredictedKbps != 2400 {
		t.Errorf("predicted = %v, want 2400 (harmonic mean of one sample)", d1.PredictedKbps)
	}

	// Repeating the chunk index replays the stored decision without
	// feeding the samples to the predictor again.
	replay, err := c.Decide(ctx, DecideRequest{
		Session: reg.Session, Chunk: 1, Buffer: 4, PrevLevel: d0.Level,
		ThroughputSamples: []float64{9999},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Replayed || replay.Level != d1.Level {
		t.Fatalf("replay = %+v, want replay of %+v", replay, d1)
	}
	d2, err := c.Decide(ctx, DecideRequest{
		Session: reg.Session, Chunk: 2, Buffer: 8, PrevLevel: d1.Level,
		ThroughputSamples: []float64{2400},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d2.PredictedKbps != 2400 {
		t.Errorf("replayed 9999 leaked into the predictor: predicted = %v, want 2400", d2.PredictedKbps)
	}

	if err := c.Delete(ctx, reg.Session); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decide(ctx, DecideRequest{Session: reg.Session, Chunk: 3}); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("decide after delete: got %v, want 404", err)
	}
	if err := c.Delete(ctx, reg.Session); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("double delete: got %v, want 404", err)
	}
}

// TestHealthz pins the health probe: 200 "ok" while serving, 503 once the
// service is draining.
func TestHealthz(t *testing.T) {
	svc, c := startTestService(t, Config{})
	for _, tc := range []struct {
		draining bool
		status   int
		body     string
	}{
		{false, http.StatusOK, "ok\n"},
		{true, http.StatusServiceUnavailable, "draining\n"},
	} {
		svc.draining.Store(tc.draining)
		resp, err := http.Get(c.base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status || string(body) != tc.body {
			t.Errorf("draining=%v: %d %q, want %d %q", tc.draining, resp.StatusCode, body, tc.status, tc.body)
		}
	}
}

func TestTableSharedAcrossSessions(t *testing.T) {
	tables := fastmpc.NewRegistry()
	_, c := startTestService(t, Config{Tables: tables})
	ctx := context.Background()

	var keys []string
	for i := 0; i < 4; i++ {
		ack, err := c.Register(ctx, SessionRequest{})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, ack.TableKey)
	}
	for _, k := range keys[1:] {
		if k != keys[0] {
			t.Fatalf("equal configs got different table keys: %v", keys)
		}
	}
	if st := tables.Stats(); st.Builds != 1 {
		t.Errorf("4 equal registrations built %d tables, want 1", st.Builds)
	}
	// A different config gets its own table.
	ack, err := c.Register(ctx, SessionRequest{Config: SessionConfig{BufferMaxSec: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.TableKey == keys[0] {
		t.Error("different buffer_max_sec produced the same table key")
	}
	if st := tables.Stats(); st.Builds != 2 {
		t.Errorf("distinct config: %d builds, want 2", st.Builds)
	}
}

// svcSimController adapts the decision service into an abr.Controller so a
// service-backed session can be played through sim.Run — the same shape
// the fleet svc backend uses.
type svcSimController struct {
	ctx     context.Context
	c       *Client
	session string
	probe   *probePredictor
	err     error
}

type probePredictor struct{ samples []float64 }

func (p *probePredictor) Name() string            { return "probe" }
func (p *probePredictor) Observe(kbps float64)    { p.samples = append(p.samples, kbps) }
func (p *probePredictor) Predict(n int) []float64 { return nil }

func (s *svcSimController) Name() string { return "svc" }
func (s *svcSimController) Decide(st abr.State) abr.Decision {
	if s.err != nil {
		return abr.Decision{}
	}
	samples := append([]float64(nil), s.probe.samples...)
	s.probe.samples = s.probe.samples[:0]
	resp, err := s.c.Decide(s.ctx, DecideRequest{
		Session: s.session, Chunk: st.Chunk, Buffer: st.Buffer,
		PrevLevel: st.Prev, ThroughputSamples: samples,
	})
	if err != nil {
		s.err = err
		return abr.Decision{}
	}
	return abr.Decision{Level: resp.Level}
}

// TestDecideParityWithLocalController plays the same trace through (a) a
// local in-process FastMPC controller and (b) the decision service, and
// requires chunk-for-chunk identical decisions — the guarantee that makes
// offloading the control plane transparent. Both the plain and the robust
// rule are checked.
func TestDecideParityWithLocalController(t *testing.T) {
	manifest := model.EnvivioManifest()
	rates := make([]float64, 80)
	for i := range rates {
		rates[i] = 400 + 150*float64(i%17) // sweeps 400..2800 kbps
	}
	tr, err := trace.FromRates("parity", 4, rates)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		robust bool
	}{
		{"FastMPC", false},
		{"RobustFastMPC", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pred predictor.Predictor = predictor.NewHarmonicMean(5)
			if tc.robust {
				pred = predictor.NewErrorTracked(predictor.NewHarmonicMean(5), 5)
			}
			local := fastmpc.NewController(model.Balanced, model.QIdentity, 30, 5, nil, tc.robust, tc.name)(manifest)
			cfg := sim.Config{BufferMax: 30, Horizon: 5, Startup: sim.StartupFirstChunk}
			want, err := sim.Run(manifest, tr, local, pred, cfg)
			if err != nil {
				t.Fatal(err)
			}

			_, c := startTestService(t, Config{})
			ack, err := c.Register(context.Background(), SessionRequest{
				Config: SessionConfig{Robust: tc.robust},
			})
			if err != nil {
				t.Fatal(err)
			}
			probe := &probePredictor{}
			ctrl := &svcSimController{ctx: context.Background(), c: c, session: ack.Session, probe: probe}
			got, err := sim.Run(manifest, tr, ctrl, probe, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ctrl.err != nil {
				t.Fatal(ctrl.err)
			}

			if len(got.Chunks) != len(want.Chunks) {
				t.Fatalf("service session played %d chunks, local %d", len(got.Chunks), len(want.Chunks))
			}
			for k := range want.Chunks {
				if got.Chunks[k].Level != want.Chunks[k].Level {
					t.Fatalf("chunk %d: service chose level %d, local %d",
						k, got.Chunks[k].Level, want.Chunks[k].Level)
				}
			}
		})
	}
}

// TestDecidePathZeroAllocs is the runtime witness of //mpc:noalloc on the
// decide path's link-group sample pick. The sample slice is full
// (len == cap), so any append on it would have to grow.
func TestDecidePathZeroAllocs(t *testing.T) {
	samples := []float64{1800, 2400, 0}
	var sum float64
	if allocs := testing.AllocsPerRun(200, func() { sum += lastSample(samples) }); allocs != 0 {
		t.Errorf("lastSample allocates %.2f objects/op, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("decide-path helpers never ran")
	}
}

// TestStoreTTLEvictionFakeClock drives the store's idle eviction on an
// injected clock: no sleeping, exact control over idleness.
func TestStoreTTLEvictionFakeClock(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	st := newStore(time.Minute, 100, clock, nil)

	mk := func(id string) *session { return &session{id: id, lastChunk: -1} }
	for _, id := range []string{"a", "b", "c"} {
		if err := st.put(mk(id)); err != nil {
			t.Fatal(err)
		}
	}

	now = now.Add(30 * time.Second)
	if evicted := st.evictIdle(); len(evicted) != 0 {
		t.Fatalf("evicted %d sessions before the TTL elapsed", len(evicted))
	}

	// Touch "b": its idle clock resets, the others age on.
	if _, ok := st.get("b"); !ok {
		t.Fatal("get(b) missed")
	}
	now = now.Add(45 * time.Second) // a,c idle 75s > TTL; b idle 45s
	evicted := st.evictIdle()
	if len(evicted) != 2 {
		t.Fatalf("evicted %d sessions, want 2 (a and c)", len(evicted))
	}
	for _, ss := range evicted {
		if ss.id == "b" {
			t.Error("evicted the recently used session")
		}
	}
	if st.len() != 1 {
		t.Errorf("store holds %d sessions after eviction, want 1", st.len())
	}
	if _, ok := st.get("a"); ok {
		t.Error("evicted session still resident")
	}

	// Capacity is enforced against the post-eviction count.
	if err := st.put(mk("d")); err != nil {
		t.Fatal(err)
	}
	if err := st.put(mk("d")); err == nil {
		t.Error("duplicate put accepted")
	}
}

func TestServiceJanitorEvictsIdleSessions(t *testing.T) {
	svc, c := startTestService(t, Config{SessionTTL: 50 * time.Millisecond})
	if _, err := c.Register(context.Background(), SessionRequest{ID: "idle"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for svc.Sessions() > 0 && time.Now().Before(deadline) {
		svc.EvictIdle()
		time.Sleep(10 * time.Millisecond)
	}
	if n := svc.Sessions(); n != 0 {
		t.Fatalf("%d sessions resident after TTL, want 0", n)
	}
	if got := svc.Registry().Snapshot()[MetricSessionsEvicted]; got != uint64(1) {
		t.Errorf("%s = %v, want 1", MetricSessionsEvicted, got)
	}
}

// TestConcurrentDecideDeterminism runs the same concurrent decide workload
// twice and requires identical per-session decision sequences: however
// the requests interleave, each session's decisions depend on its own
// inputs only. Run under -race this is also the ErrorTracked-under-
// concurrency test — many goroutines updating per-session predictor state
// through the store at once.
func TestConcurrentDecideDeterminism(t *testing.T) {
	const sessions, chunks = 24, 20
	sample := func(sess, chunk int) float64 {
		return 500 + 100*float64((sess*31+chunk*17)%40)
	}
	tables := fastmpc.NewRegistry() // shared: table built once across sub-runs

	runAll := func() [][]int {
		_, c := startTestService(t, Config{Tables: tables})
		ctx := context.Background()
		out := make([][]int, sessions)
		var wg sync.WaitGroup
		errs := make([]error, sessions)
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				ack, err := c.Register(ctx, SessionRequest{ID: fmt.Sprintf("s%d", s), Config: SessionConfig{Robust: s%2 == 1}})
				if err != nil {
					errs[s] = err
					return
				}
				prev := -1
				for k := 0; k < chunks; k++ {
					var samples []float64
					if k > 0 {
						samples = []float64{sample(s, k-1)}
					}
					resp, err := c.Decide(ctx, DecideRequest{
						Session: ack.Session, Chunk: k,
						Buffer:            float64((s + k*7) % 28),
						PrevLevel:         prev,
						ThroughputSamples: samples,
					})
					if err != nil {
						errs[s] = err
						return
					}
					prev = resp.Level
					out[s] = append(out[s], resp.Level)
				}
			}(s)
		}
		wg.Wait()
		for s, err := range errs {
			if err != nil {
				t.Fatalf("session %d: %v", s, err)
			}
		}
		return out
	}

	want, got := runAll(), runAll()
	for s := range want {
		if fmt.Sprint(got[s]) != fmt.Sprint(want[s]) {
			t.Fatalf("session %d decisions %v, then %v", s, want[s], got[s])
		}
	}
}

// TestOverloadShedding pins the single in-flight slot and verifies the
// valve: one request queues and sheds at the wait deadline, later
// arrivals shed immediately on the full queue, all with 429 +
// Retry-After and counted on the shed metric — and nothing leaks.
func TestOverloadShedding(t *testing.T) {
	base := runtime.NumGoroutine()
	svc, c := startTestService(t, Config{
		MaxInFlight: 1,
		QueueDepth:  1,
		QueueWait:   150 * time.Millisecond,
	})
	release := holdDecides(t, svc)
	ctx := context.Background()
	ack, err := c.Register(ctx, SessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	req := DecideRequest{Session: ack.Session, Chunk: 0, PrevLevel: -1}

	// A: takes the in-flight slot and parks inside the handler.
	aDone := make(chan error, 1)
	go func() {
		_, err := c.Decide(ctx, req)
		aDone <- err
	}()
	waitFor(t, func() bool {
		return svc.Registry().Snapshot()[MetricInflight] == float64(1)
	})

	// B: queues, then sheds when the wait budget expires.
	bDone := make(chan error, 1)
	bStart := time.Now()
	go func() {
		_, err := c.Decide(ctx, req)
		bDone <- err
	}()
	waitFor(t, func() bool {
		return svc.Registry().Snapshot()[MetricQueued] == float64(1)
	})

	// C: the queue is full — shed immediately.
	var apiErr *APIError
	if _, err := c.Decide(ctx, req); !errors.As(err, &apiErr) || !apiErr.IsShed() {
		t.Fatalf("queue-full request: got %v, want 429", err)
	}
	if apiErr.RetryAfter < 1 {
		t.Errorf("shed response Retry-After = %d, want >= 1", apiErr.RetryAfter)
	}

	if err := <-bDone; !errors.As(err, &apiErr) || !apiErr.IsShed() {
		t.Fatalf("queued request: got %v, want 429 after the wait budget", err)
	} else if waited := time.Since(bStart); waited > 5*time.Second {
		t.Errorf("queued request shed after %v, want within the queue deadline", waited)
	}

	// D: a queued caller that gives up releases its queue slot.
	dctx, cancel := context.WithCancel(ctx)
	dDone := make(chan error, 1)
	go func() {
		_, err := c.Decide(dctx, req)
		dDone <- err
	}()
	waitFor(t, func() bool {
		return svc.Registry().Snapshot()[MetricQueued] == float64(1)
	})
	cancel()
	<-dDone
	waitFor(t, func() bool {
		return svc.Registry().Snapshot()[MetricQueued] == float64(0)
	})

	release() // A
	if err := <-aDone; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
	snap := svc.Registry().Snapshot()
	if shed := snap[MetricShedTotal]; shed != uint64(2) {
		t.Errorf("%s = %v, want 2 (one queue-full, one wait-expired)", MetricShedTotal, shed)
	}
	if dec := snap[MetricDecisionsTotal]; dec != uint64(1) {
		t.Errorf("%s = %v, want 1 (only the held request decided)", MetricDecisionsTotal, dec)
	}

	// Nothing left behind: transports idle, no handler goroutines pinned.
	c.CloseIdle()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base+3 })
}

// holdDecides parks every decide request after admission until release is
// called. release is idempotent and also runs as a cleanup registered after
// startTestService's, so it runs first (cleanups run last in, first out):
// a test that fails with a request parked fails at once instead of hanging
// in the server's Close until the go test timeout.
func holdDecides(t *testing.T, svc *Service) (release func()) {
	hold := make(chan struct{})
	svc.testDecideHold = hold
	release = sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release)
	return release
}

// waitFor polls cond for up to 5 s; the enclosing test fails if it never
// holds. Used for cross-goroutine state the test cannot block on directly.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true within 5s")
}

// TestGracefulDrain verifies Server.Shutdown: health flips to draining,
// the in-flight decide completes with 200, and Shutdown only returns once
// it has.
func TestGracefulDrain(t *testing.T) {
	svc := New(Config{Tables: fastmpc.NewRegistry()})
	release := holdDecides(t, svc)
	srv, err := svc.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.URL())
	defer c.CloseIdle()
	ctx := context.Background()
	ack, err := c.Register(ctx, SessionRequest{})
	if err != nil {
		t.Fatal(err)
	}

	decideDone := make(chan error, 1)
	go func() {
		_, err := c.Decide(ctx, DecideRequest{Session: ack.Session, Chunk: 0, PrevLevel: -1})
		decideDone <- err
	}()
	waitFor(t, func() bool {
		return svc.Registry().Snapshot()[MetricInflight] == float64(1)
	})

	shutdownDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(sctx)
	}()
	waitFor(t, func() bool { return svc.draining.Load() })
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a decide was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	release()
	if err := <-decideDone; err != nil {
		t.Fatalf("in-flight decide failed across Shutdown: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShedDuringDrain is TestGracefulDrain with a request queued behind
// the held one: while Server.Shutdown drains, health answers 503 and the
// queued request is shed with 429 + Retry-After at its wait deadline (not
// reset, not a 5xx); the held request still completes, and Shutdown
// returns nil having closed the decision sink exactly once.
func TestShedDuringDrain(t *testing.T) {
	sink := &closeCountSink{}
	svc := New(Config{
		Tables:      fastmpc.NewRegistry(),
		MaxInFlight: 1,
		QueueDepth:  1,
		QueueWait:   300 * time.Millisecond,
		Sink:        sink,
	})
	release := holdDecides(t, svc)
	srv, err := svc.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.URL())
	defer c.CloseIdle()
	ctx := context.Background()
	ack, err := c.Register(ctx, SessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	req := DecideRequest{Session: ack.Session, Chunk: 0, PrevLevel: -1}

	// A parks in the only in-flight slot; B queues behind it.
	aDone := make(chan error, 1)
	go func() {
		_, err := c.Decide(ctx, req)
		aDone <- err
	}()
	waitFor(t, func() bool {
		return svc.Registry().Snapshot()[MetricInflight] == float64(1)
	})
	bDone := make(chan error, 1)
	go func() {
		_, err := c.Decide(ctx, req)
		bDone <- err
	}()
	waitFor(t, func() bool {
		return svc.Registry().Snapshot()[MetricQueued] == float64(1)
	})

	shutdownDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(sctx)
	}()
	waitFor(t, func() bool { return svc.draining.Load() })

	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", rec.Code)
	}

	var apiErr *APIError
	if err := <-bDone; !errors.As(err, &apiErr) || !apiErr.IsShed() {
		t.Fatalf("request queued across Shutdown: got %v, want 429", err)
	}
	if apiErr.RetryAfter < 1 {
		t.Errorf("shed response Retry-After = %d, want >= 1", apiErr.RetryAfter)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a decide was in flight", err)
	default:
	}

	release()
	if err := <-aDone; err != nil {
		t.Fatalf("in-flight decide failed across Shutdown: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if n := sink.closes.Load(); n != 1 {
		t.Errorf("sink closed %d times, want 1", n)
	}
}

// closeCountSink discards events and counts Close calls.
type closeCountSink struct{ closes atomic.Int64 }

func (s *closeCountSink) Decision(obs.DecisionEvent) {}
func (s *closeCountSink) Close() error               { s.closes.Add(1); return nil }

// TestFairnessShare checks the link-group hook end to end: two sessions
// on one bottleneck each get aggregate/2, and the cap only binds when it
// is below the session's own forecast.
func TestFairnessShare(t *testing.T) {
	_, c := startTestService(t, Config{Fairness: true})
	ctx := context.Background()
	cfg := SessionConfig{LinkGroup: "cell-7"}
	a, err := c.Register(ctx, SessionRequest{ID: "a", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Register(ctx, SessionRequest{ID: "b", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	// Both report once so the group aggregate is 8000+2000 over 2 members.
	if _, err := c.Decide(ctx, DecideRequest{Session: a.Session, Chunk: 0, PrevLevel: -1, ThroughputSamples: []float64{8000}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decide(ctx, DecideRequest{Session: b.Session, Chunk: 0, PrevLevel: -1, ThroughputSamples: []float64{2000}}); err != nil {
		t.Fatal(err)
	}

	// A's own forecast (8000) exceeds its fair share (5000): capped.
	da, err := c.Decide(ctx, DecideRequest{Session: a.Session, Chunk: 1, Buffer: 10, PrevLevel: 0, ThroughputSamples: []float64{8000}})
	if err != nil {
		t.Fatal(err)
	}
	if da.FairShareKbps != 5000 {
		t.Errorf("session a fair share = %v, want 5000", da.FairShareKbps)
	}
	// B's forecast (2000) is under the share: the cap must not bind.
	db, err := c.Decide(ctx, DecideRequest{Session: b.Session, Chunk: 1, Buffer: 10, PrevLevel: 0, ThroughputSamples: []float64{2000}})
	if err != nil {
		t.Fatal(err)
	}
	if db.FairShareKbps != 0 {
		t.Errorf("session b fair share = %v, want 0 (cap not binding)", db.FairShareKbps)
	}

	// Departure shrinks the group: the lone survivor gets the whole link.
	if err := c.Delete(ctx, a.Session); err != nil {
		t.Fatal(err)
	}
	db2, err := c.Decide(ctx, DecideRequest{Session: b.Session, Chunk: 2, Buffer: 10, PrevLevel: 0, ThroughputSamples: []float64{2000}})
	if err != nil {
		t.Fatal(err)
	}
	if db2.FairShareKbps != 0 {
		t.Errorf("sole group member capped at %v, want uncapped", db2.FairShareKbps)
	}
}

// TestDecideHostileSamples pins decide totality on extreme throughput
// samples over the real HTTP path. No JSON body can carry NaN or ±Inf:
// encoding/json rejects an overflowing literal such as 1e999, so the
// request is a 400. The smallest subnormal and the largest finite double
// are accepted, for plain and robust sessions and on a second chunk that
// scores the first forecast, and decide the lowest level with no usable
// forecast.
func TestDecideHostileSamples(t *testing.T) {
	_, c := startTestService(t, Config{})
	ctx := context.Background()
	decide := func(session string, chunk int, sample string) (int, DecideResponse, error) {
		body := fmt.Sprintf(`{"session":%q,"chunk":%d,"prev_level":-1,"throughput_samples":[%s]}`, session, chunk, sample)
		resp, err := http.Post(c.base+"/v1/decide", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var dec DecideResponse
		return resp.StatusCode, dec, json.NewDecoder(resp.Body).Decode(&dec)
	}
	for _, robust := range []bool{false, true} {
		for _, sample := range []string{"1e999", "-1e999", "5e-324", "1.7976931348623157e308"} {
			ack, err := c.Register(ctx, SessionRequest{Config: SessionConfig{Robust: robust}})
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasSuffix(sample, "e999") {
				if status, _, _ := decide(ack.Session, 0, sample); status != http.StatusBadRequest {
					t.Errorf("robust=%v sample %s: status %d, want 400", robust, sample, status)
				}
				continue
			}
			for chunk := 0; chunk < 2; chunk++ {
				status, dec, err := decide(ack.Session, chunk, sample)
				if status != http.StatusOK || err != nil || dec.Level != 0 || dec.PredictedKbps != 0 || dec.LowerKbps != 0 {
					t.Errorf("robust=%v sample %s chunk %d: status %d, %+v (decode err %v); want 200, level 0, no forecast",
						robust, sample, chunk, status, dec, err)
				}
			}
		}
	}
}

// TestDecisionEventsReachSink verifies the obs wiring: one DecisionEvent
// per fresh decision, none for replays.
func TestDecisionEventsReachSink(t *testing.T) {
	sink := &captureSink{}
	_, c := startTestService(t, Config{Sink: sink})
	ctx := context.Background()
	ack, err := c.Register(ctx, SessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{0, 1, 1} { // the second 1 is a replay
		if _, err := c.Decide(ctx, DecideRequest{Session: ack.Session, Chunk: chunk, PrevLevel: -1}); err != nil {
			t.Fatal(err)
		}
	}
	evs := sink.events()
	if len(evs) != 2 {
		t.Fatalf("sink saw %d events, want 2 (replays are not decisions)", len(evs))
	}
	if evs[0].Algorithm != "FastMPC" || evs[0].Index != 0 || evs[1].Index != 1 {
		t.Errorf("unexpected event stream: %+v", evs)
	}
}

type captureSink struct {
	mu  sync.Mutex
	evs []obs.DecisionEvent
}

func (s *captureSink) Decision(ev obs.DecisionEvent) {
	s.mu.Lock()
	s.evs = append(s.evs, ev)
	s.mu.Unlock()
}
func (s *captureSink) Close() error { return nil }
func (s *captureSink) events() []obs.DecisionEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.DecisionEvent(nil), s.evs...)
}
