package emu

import (
	"context"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpcdash/internal/abr"
	"mpcdash/internal/core"
	"mpcdash/internal/httpstrict"
	"mpcdash/internal/model"
	"mpcdash/internal/mpd"
	"mpcdash/internal/predictor"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// newTestServer is NewServer with the non-nil wraps applied in order and
// httpstrict outermost, so a WriteHeader after the response is committed,
// in a handler or a middleware, fails t.
func newTestServer(t *testing.T, m *model.Manifest, wraps ...func(http.Handler) http.Handler) *Server {
	srv := NewServer(m)
	for _, w := range wraps {
		if w != nil {
			srv.Wrap(w)
		}
	}
	srv.Wrap(httpstrict.Middleware(t))
	return srv
}

// testVideo is a short manifest so emulation tests finish in seconds.
func testVideo(t *testing.T, chunks int) *model.Manifest {
	t.Helper()
	m, err := model.NewCBRManifest(model.EnvivioLadder(), chunks, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// session runs one end-to-end emulated playback at the given time scale.
func session(t *testing.T, m *model.Manifest, tr *trace.Trace, scale float64, factory abr.Factory, pred predictor.Predictor) *model.SessionResult {
	t.Helper()
	srv := newTestServer(t, m)
	base, err := srv.Start(NewShaper(tr.Scale(scale, scale)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	client := &Client{
		BaseURL:    base,
		Controller: factory(m),
		Predictor:  pred,
		Config:     sim.Config{BufferMax: 30, Horizon: 5},
		TimeScale:  scale,
		HTTP:       &http.Client{Timeout: 50 * time.Second},
		Retries:    DefaultRetries,
	}
	res, err := client.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEmulatedSessionCompletes(t *testing.T) {
	m := testVideo(t, 8)
	tr, err := trace.FromRates("const1500", 8, []float64{1500, 1500, 1500, 1500, 1500})
	if err != nil {
		t.Fatal(err)
	}
	res := session(t, m, tr, 20, abr.NewRB(1), predictor.NewHarmonicMean(5))
	if len(res.Chunks) != 8 {
		t.Fatalf("chunks = %d, want 8", len(res.Chunks))
	}
	for _, c := range res.Chunks {
		if c.SizeKbits <= 0 || c.DownloadTime <= 0 || c.Throughput <= 0 {
			t.Errorf("chunk %d has degenerate record: %+v", c.Index, c)
		}
	}
	if res.StartupDelay <= 0 {
		t.Error("startup delay should be positive (first-chunk download time)")
	}
}

// TestEmulatedThroughputTracksTrace: measured per-chunk throughput should be
// in the neighbourhood of the shaped link rate (TCP/HTTP overhead and pacing
// granularity allow a generous tolerance).
func TestEmulatedThroughputTracksTrace(t *testing.T) {
	m := testVideo(t, 6)
	const kbps = 2000.0
	tr, err := trace.FromRates("const", 60, []float64{kbps})
	if err != nil {
		t.Fatal(err)
	}
	res := session(t, m, tr, 10, abr.NewFixed(2), predictor.NewHarmonicMean(5))
	for _, c := range res.Chunks[1:] { // skip connection warm-up
		if c.Throughput < kbps*0.5 || c.Throughput > kbps*1.6 {
			t.Errorf("chunk %d throughput %v kbps, want ≈%v", c.Index, c.Throughput, kbps)
		}
	}
}

// TestEmulatedABRReactsToBandwidth: with a link below the top rung, the
// rate-based controller must settle below the top level; with an ample
// link it must reach the top.
func TestEmulatedABRReactsToBandwidth(t *testing.T) {
	m := testVideo(t, 8)
	slow, err := trace.FromRates("slow", 60, []float64{800})
	if err != nil {
		t.Fatal(err)
	}
	res := session(t, m, slow, 10, abr.NewRB(1), predictor.NewHarmonicMean(5))
	for _, c := range res.Chunks[2:] {
		if c.Level > 1 {
			t.Errorf("chunk %d at level %d on an 800 kbps link", c.Index, c.Level)
		}
	}

	fast, err := trace.FromRates("fast", 60, []float64{8000})
	if err != nil {
		t.Fatal(err)
	}
	res = session(t, m, fast, 10, abr.NewRB(1), predictor.NewHarmonicMean(5))
	top := 0
	for _, c := range res.Chunks {
		if c.Level > top {
			top = c.Level
		}
	}
	if top < 4 {
		t.Errorf("max level %d on an 8 Mbps link, want 4", top)
	}
}

// TestEmulatedMPCSession: the full MPC controller over real HTTP.
func TestEmulatedMPCSession(t *testing.T) {
	m := testVideo(t, 8)
	tr, err := trace.FromRates("varying", 6, []float64{2500, 1200, 600, 1800, 2500})
	if err != nil {
		t.Fatal(err)
	}
	pred := predictor.NewErrorTracked(predictor.NewHarmonicMean(5), 5)
	res := session(t, m, tr, 15, core.NewRobustMPC(model.Balanced, model.QIdentity, 30, 5), pred)
	if len(res.Chunks) != 8 {
		t.Fatalf("chunks = %d, want 8", len(res.Chunks))
	}
	qoe := res.QoE(model.Balanced, model.QIdentity)
	if math.IsNaN(qoe) || math.IsInf(qoe, 0) {
		t.Errorf("QoE = %v", qoe)
	}
}

// TestEmulationMatchesSimulator: the emulated session's buffer dynamics obey
// the same Eq. (3) invariants the simulator guarantees.
func TestEmulationMatchesSimulator(t *testing.T) {
	m := testVideo(t, 8)
	tr, err := trace.FromRates("inv", 8, []float64{1500, 900, 2000, 1200})
	if err != nil {
		t.Fatal(err)
	}
	res := session(t, m, tr, 15, abr.NewBB(5, 10), predictor.NewHarmonicMean(5))
	for i, c := range res.Chunks {
		if c.BufferAfter < -1e-9 || c.BufferAfter > 30+1e-9 {
			t.Errorf("chunk %d buffer %v outside [0, 30]", i, c.BufferAfter)
		}
		want := math.Max(c.BufferBefore-c.DownloadTime, 0) + m.ChunkDuration - c.Wait
		if math.Abs(want-c.BufferAfter) > 1e-6 {
			t.Errorf("chunk %d: Eq. (3) violated: %v vs %v", i, want, c.BufferAfter)
		}
	}
}

func TestServerRejectsBadPaths(t *testing.T) {
	m := testVideo(t, 4)
	srv := newTestServer(t, m)
	tr, err := trace.FromRates("fast", 60, []float64{100000})
	if err != nil {
		t.Fatal(err)
	}
	base, err := srv.Start(NewShaper(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{
		"/video/0/0.m4s",  // number below 1
		"/video/0/99.m4s", // number beyond chunk count
		"/video/9/1.m4s",  // level out of range
		"/video/0/1.mp4",  // wrong suffix
		"/video/abc/1.m4s",
		"/nothing",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestRunWithController binds the controller to the fetched manifest, the
// path dashclient uses.
func TestRunWithController(t *testing.T) {
	m := testVideo(t, 5)
	tr, err := trace.FromRates("c", 60, []float64{3000})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, m)
	base, err := srv.Start(NewShaper(tr.Scale(10, 10)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &Client{
		BaseURL:   base,
		Predictor: predictor.NewHarmonicMean(5),
		Config:    sim.Config{BufferMax: 30},
		TimeScale: 10,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := client.RunWithController(ctx, abr.NewBB(5, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "BB" || len(res.Chunks) != 5 {
		t.Fatalf("algorithm %q, %d chunks", res.Algorithm, len(res.Chunks))
	}
}

// TestClientCancellation: a cancelled context aborts the session cleanly.
func TestClientCancellation(t *testing.T) {
	m := testVideo(t, 20)
	tr, err := trace.FromRates("slowlink", 60, []float64{200})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, m)
	base, err := srv.Start(NewShaper(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	client := &Client{
		BaseURL:    base,
		Controller: abr.NewRB(1)(m),
		Predictor:  predictor.NewHarmonicMean(5),
		Config:     sim.Config{BufferMax: 30},
		TimeScale:  1,
	}
	if _, err := client.Run(ctx); err == nil {
		t.Fatal("expected cancellation error on a crawling link")
	}
}

// TestFaultInjectionRetries: with connections randomly severed mid-chunk,
// the client's retry loop must still complete the session.
func TestFaultInjectionRetries(t *testing.T) {
	m := testVideo(t, 6)
	tr, err := trace.FromRates("f", 60, []float64{4000})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faulty := NewFaultyListener(ln, FaultConfig{DropRate: 0.01, Seed: 3})
	shaped := NewListener(faulty, NewShaper(tr.Scale(10, 10)))
	go func() { _ = srv.ServeOn(shaped) }()
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	client := &Client{
		BaseURL:    "http://" + ln.Addr().String(),
		Controller: abr.NewBB(5, 10)(m),
		Predictor:  predictor.NewHarmonicMean(5),
		Config:     sim.Config{BufferMax: 30},
		TimeScale:  10,
		Retries:    20,
	}
	res, err := client.Run(ctx)
	if err != nil {
		t.Fatalf("session failed despite retries: %v", err)
	}
	if len(res.Chunks) != 6 {
		t.Fatalf("chunks = %d", len(res.Chunks))
	}
}

// TestFaultLatency: injected latency shows up as slower chunk downloads.
func TestFaultLatency(t *testing.T) {
	m := testVideo(t, 3)
	tr, err := trace.FromRates("l", 60, []float64{50000})
	if err != nil {
		t.Fatal(err)
	}
	run := func(latency time.Duration) float64 {
		srv := newTestServer(t, m)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		faulty := NewFaultyListener(ln, FaultConfig{Latency: latency, Seed: 1})
		shaped := NewListener(faulty, NewShaper(tr))
		go func() { _ = srv.ServeOn(shaped) }()
		defer srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		client := &Client{
			BaseURL:    "http://" + ln.Addr().String(),
			Controller: abr.NewFixed(0)(m),
			Predictor:  predictor.NewHarmonicMean(5),
			Config:     sim.Config{BufferMax: 30},
			TimeScale:  1,
		}
		res, err := client.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, c := range res.Chunks {
			total += c.DownloadTime
		}
		return total
	}
	fast := run(0)
	slow := run(150 * time.Millisecond)
	if slow <= fast {
		t.Errorf("latency injection had no effect: %v vs %v", slow, fast)
	}
}

// ---- fault matrix -----------------------------------------------------
//
// The tests below exercise the hardened download engine against the
// transport failures of a real CDN path: truncated bodies, stalled
// transfers, flaky 5xx responses, permanent 404s, and cancellation.

// isChunkRequest selects media-segment requests (not the manifest).
func isChunkRequest(r *http.Request) bool {
	return strings.HasPrefix(r.URL.Path, "/video/")
}

// faultySession runs a session against a server whose listener is wrapped
// in fault injection, returning the result or error.
func faultySession(t *testing.T, m *model.Manifest, tr *trace.Trace, scale float64, cfg FaultConfig, tweak func(*Client), wrap func(http.Handler) http.Handler) (*model.SessionResult, error) {
	t.Helper()
	srv := newTestServer(t, m, wrap)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shaped := NewListener(NewFaultyListener(ln, cfg), NewShaper(tr.Scale(scale, scale)))
	go func() { _ = srv.ServeOn(shaped) }()
	t.Cleanup(func() { srv.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	client := &Client{
		BaseURL:    "http://" + ln.Addr().String(),
		Controller: abr.NewFixed(2)(m),
		Predictor:  predictor.NewHarmonicMean(5),
		Config:     sim.Config{BufferMax: 30},
		TimeScale:  scale,
		Retries:    DefaultRetries,
	}
	if tweak != nil {
		tweak(client)
	}
	return client.Run(ctx)
}

// TestTruncatedChunkResumedViaRange is the headline fault-injection case:
// a connection severed mid-body is detected (the seed client silently
// counted it as a complete chunk), resumed with an HTTP Range request,
// and the recorded chunk size matches the manifest exactly.
func TestTruncatedChunkResumedViaRange(t *testing.T) {
	m := testVideo(t, 3)
	tr, err := trace.FromRates("t", 60, []float64{20000})
	if err != nil {
		t.Fatal(err)
	}
	// First connection dies after 40 kB: the manifest (~1 kB) passes, the
	// first 500 kB chunk is cut mid-body.
	res, err := faultySession(t, m, tr, 10,
		FaultConfig{TruncateAfter: 40_000, TruncateConns: 1}, nil, nil)
	if err != nil {
		t.Fatalf("session failed despite resume support: %v", err)
	}
	var retries, resumes int
	for _, c := range res.Chunks {
		want := float64(mpd.ChunkBytes(m, c.Index, c.Level)) * 8 / 1000
		if math.Abs(c.SizeKbits-want) > 1e-9 {
			t.Errorf("chunk %d: recorded %v kbits, manifest says %v — truncation under-counted", c.Index, c.SizeKbits, want)
		}
		retries += c.Retries
		resumes += c.Resumes
	}
	if retries < 1 {
		t.Error("no retries recorded for a truncated transfer")
	}
	if resumes < 1 {
		t.Error("truncated transfer was not resumed via Range")
	}
	metrics := res.ComputeMetrics(model.QIdentity)
	if metrics.Retries != retries || metrics.Resumes != resumes {
		t.Errorf("metrics (%d retries, %d resumes) disagree with chunk records (%d, %d)",
			metrics.Retries, metrics.Resumes, retries, resumes)
	}
}

// TestTruncationDetectedWithoutRetries: with the retry budget at zero and
// fallback off, a truncated body must surface as an error — the seed
// client returned success with under-counted bytes.
func TestTruncationDetectedWithoutRetries(t *testing.T) {
	m := testVideo(t, 3)
	tr, err := trace.FromRates("t0", 60, []float64{20000})
	if err != nil {
		t.Fatal(err)
	}
	_, err = faultySession(t, m, tr, 10,
		FaultConfig{TruncateAfter: 40_000}, // every connection truncates
		func(c *Client) { c.Retries = 0; c.DisableFallback = true }, nil)
	if err == nil {
		t.Fatal("truncated download reported as success")
	}
	if !strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "EOF") {
		t.Errorf("error does not identify the truncation: %v", err)
	}
}

// TestFlaky5xxRetriedWithBackoff: transient 503s are retried (with
// backoff) until the server recovers.
func TestFlaky5xxRetriedWithBackoff(t *testing.T) {
	m := testVideo(t, 3)
	tr, err := trace.FromRates("f5", 60, []float64{20000})
	if err != nil {
		t.Fatal(err)
	}
	const base = 20 * time.Millisecond
	start := time.Now()
	res, err := faultySession(t, m, tr, 10, FaultConfig{},
		func(c *Client) { c.Retries = 5; c.BackoffBase = base },
		StatusFaults(http.StatusServiceUnavailable, 2, isChunkRequest))
	if err != nil {
		t.Fatalf("session failed despite retry budget: %v", err)
	}
	metrics := res.ComputeMetrics(model.QIdentity)
	if metrics.Retries < 2 {
		t.Errorf("retries = %d, want >= 2 (two injected 503s)", metrics.Retries)
	}
	// Two backoffs with jitter >= 0.5: at least base/2 + base = 30 ms.
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("session finished in %v; backoff apparently skipped", elapsed)
	}
}

// Test404FailsFast: a permanent error must not burn the retry budget.
func Test404FailsFast(t *testing.T) {
	m := testVideo(t, 3)
	var requests atomic.Int64
	srv := newTestServer(t, m, CountRequests(&requests, isChunkRequest))
	tr, err := trace.FromRates("p", 60, []float64{50000})
	if err != nil {
		t.Fatal(err)
	}
	base, err := srv.Start(NewShaper(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &Client{BaseURL: base, Retries: 5}
	d := client.newDownloader(http.DefaultClient)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st := &model.ChunkRecord{Index: 998, Level: 0} // beyond the chunk count
	_, err = d.FetchChunk(ctx, st)
	if err == nil {
		t.Fatal("fetching a nonexistent chunk succeeded")
	}
	if !strings.Contains(err.Error(), "404") {
		t.Errorf("error does not carry the status: %v", err)
	}
	if got := requests.Load(); got != 1 {
		t.Errorf("%d requests for a permanent 404, want exactly 1", got)
	}
	if len(st.Attempts) != 1 || st.Retries != 0 {
		t.Errorf("stats = %+v, want a single attempt", st)
	}
}

// TestFallbackToLowestLevel: when every level above the bottom rung is
// persistently broken, the engine degrades to level 0 instead of failing
// the session, and records the event.
func TestFallbackToLowestLevel(t *testing.T) {
	m := testVideo(t, 4)
	tr, err := trace.FromRates("fb", 60, []float64{20000})
	if err != nil {
		t.Fatal(err)
	}
	brokenUpperLevels := func(r *http.Request) bool {
		return isChunkRequest(r) && !strings.HasPrefix(r.URL.Path, "/video/0/")
	}
	res, err := faultySession(t, m, tr, 10, FaultConfig{},
		func(c *Client) {
			c.Controller = abr.NewFixed(4)(m)
			c.Retries = 1
			c.BackoffBase = time.Millisecond
		},
		StatusFaults(http.StatusServiceUnavailable, -1, brokenUpperLevels))
	if err != nil {
		t.Fatalf("session failed instead of degrading: %v", err)
	}
	for _, c := range res.Chunks {
		if !c.Fallback {
			t.Errorf("chunk %d: no fallback recorded", c.Index)
		}
		if c.Level != 0 || c.Bitrate != m.Ladder[0] {
			t.Errorf("chunk %d served at level %d (%v kbps), want lowest", c.Index, c.Level, c.Bitrate)
		}
	}
	metrics := res.ComputeMetrics(model.QIdentity)
	if metrics.Fallbacks != len(res.Chunks) {
		t.Errorf("Fallbacks = %d, want %d", metrics.Fallbacks, len(res.Chunks))
	}
	if metrics.Retries < len(res.Chunks) {
		t.Errorf("Retries = %d, want >= %d (budget exhausted per chunk)", metrics.Retries, len(res.Chunks))
	}
}

// TestZeroRetriesRespected: Retries = 0 must genuinely mean "fail on the
// first error" (the seed coerced it back to 2).
func TestZeroRetriesRespected(t *testing.T) {
	m := testVideo(t, 3)
	tr, err := trace.FromRates("z", 60, []float64{20000})
	if err != nil {
		t.Fatal(err)
	}
	_, err = faultySession(t, m, tr, 10, FaultConfig{},
		func(c *Client) { c.Retries = 0; c.DisableFallback = true },
		StatusFaults(http.StatusServiceUnavailable, 1, isChunkRequest))
	if err == nil {
		t.Fatal("zero-retry session survived an injected 503")
	}
}

// TestStalledTransferRescuedByAttemptTimeout: a transfer that hangs
// mid-body is abandoned after AttemptTimeout and completed on a retry.
func TestStalledTransferRescuedByAttemptTimeout(t *testing.T) {
	m := testVideo(t, 3)
	tr, err := trace.FromRates("s", 60, []float64{20000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := faultySession(t, m, tr, 10,
		FaultConfig{StallAfter: 40_000, StallFor: 5 * time.Second, StallConns: 1},
		func(c *Client) {
			c.AttemptTimeout = 300 * time.Millisecond
			c.Retries = 3
			c.HTTP = &http.Client{} // no global timeout; the per-attempt cap governs
		}, nil)
	if err != nil {
		t.Fatalf("session failed despite per-attempt timeout: %v", err)
	}
	metrics := res.ComputeMetrics(model.QIdentity)
	if metrics.Retries < 1 {
		t.Error("stalled transfer completed without a retry, stall apparently not injected")
	}
}

// TestBufferFullWaitCancellable: cancelling the context during a
// buffer-full wait must abort the session promptly (the seed slept
// uninterruptibly).
func TestBufferFullWaitCancellable(t *testing.T) {
	m := testVideo(t, 6)
	tr, err := trace.FromRates("w", 60, []float64{50000})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, m)
	base, err := srv.Start(NewShaper(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// BufferMax 5 with 4 s chunks on a fast link forces multi-second
	// buffer-full waits at TimeScale 1.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	client := &Client{
		BaseURL:    base,
		Controller: abr.NewFixed(0)(m),
		Predictor:  predictor.NewHarmonicMean(5),
		Config:     sim.Config{BufferMax: 5},
		TimeScale:  1,
	}
	start := time.Now()
	_, err = client.Run(ctx)
	if err == nil {
		t.Fatal("session survived cancellation")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v; buffer-full wait is not context-aware", elapsed)
	}
}

// TestServerRangeRequests: the origin honours "bytes=N-" resumes and
// rejects unsatisfiable offsets.
func TestServerRangeRequests(t *testing.T) {
	m := testVideo(t, 3)
	srv := newTestServer(t, m)
	tr, err := trace.FromRates("r", 60, []float64{100000})
	if err != nil {
		t.Fatal(err)
	}
	base, err := srv.Start(NewShaper(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	size := mpd.ChunkBytes(m, 0, 1)

	get := func(rangeHeader string) *http.Response {
		req, err := http.NewRequest(http.MethodGet, base+"/video/1/1.m4s", nil)
		if err != nil {
			t.Fatal(err)
		}
		if rangeHeader != "" {
			req.Header.Set("Range", rangeHeader)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	full := get("")
	if full.StatusCode != http.StatusOK || full.ContentLength != int64(size) {
		t.Errorf("full GET: status %d, length %d, want 200/%d", full.StatusCode, full.ContentLength, size)
	}

	part := get("bytes=1000-")
	if part.StatusCode != http.StatusPartialContent {
		t.Fatalf("ranged GET: status %d, want 206", part.StatusCode)
	}
	if part.ContentLength != int64(size-1000) {
		t.Errorf("ranged GET: length %d, want %d", part.ContentLength, size-1000)
	}
	wantCR := "bytes 1000-" + strconv.Itoa(size-1) + "/" + strconv.Itoa(size)
	if cr := part.Header.Get("Content-Range"); cr != wantCR {
		t.Errorf("Content-Range = %q, want %q", cr, wantCR)
	}

	beyond := get("bytes=" + strconv.Itoa(size) + "-")
	if beyond.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Errorf("out-of-range GET: status %d, want 416", beyond.StatusCode)
	}

	// Unsupported range forms degrade to a full 200 response.
	closed := get("bytes=0-99")
	if closed.StatusCode != http.StatusOK || closed.ContentLength != int64(size) {
		t.Errorf("closed-range GET: status %d, length %d, want full 200", closed.StatusCode, closed.ContentLength)
	}
}
