package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mpcdash/internal/model"
)

// TestPrometheusGolden pins the exposition format byte for byte: family
// ordering, HELP/TYPE headers, label rendering, cumulative buckets and the
// derived _sum/_count. Observations are exactly representable in binary so
// the golden sum is stable.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "A histogram.", []float64{0.1, 1, 10})
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(100)
	r.Counter("test_requests_total", "Requests served.", "path", "/a").Add(3)
	r.Gauge("test_temp", "Current temperature.").Set(2.5)

	want := `# HELP test_hist A histogram.
# TYPE test_hist histogram
test_hist_bucket{le="0.1"} 0
test_hist_bucket{le="1"} 2
test_hist_bucket{le="10"} 2
test_hist_bucket{le="+Inf"} 3
test_hist_sum 100.75
test_hist_count 3
# HELP test_requests_total Requests served.
# TYPE test_requests_total counter
test_requests_total{path="/a"} 3
# HELP test_temp Current temperature.
# TYPE test_temp gauge
test_temp 2.5
`
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestPrometheusLabelFamilies: several label sets of one family must share
// a single HELP/TYPE header and stay contiguous and sorted.
func TestPrometheusLabelFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("fam_total", "Fam.", "alg", "RB").Inc()
	r.Counter("fam_total", "Fam.", "alg", "MPC").Add(2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP fam_total Fam.
# TYPE fam_total counter
fam_total{alg="MPC"} 2
fam_total{alg="RB"} 1
`
	if b.String() != want {
		t.Errorf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestLabelRendering(t *testing.T) {
	// Keys sort, so order of the pairs does not matter.
	a := renderLabels([]string{"b", "2", "a", "1"})
	if a != `a="1",b="2"` {
		t.Errorf("renderLabels = %q", a)
	}
	// Backslash, quote and newline escape per the text format.
	if got := escapeLabel("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Errorf("escapeLabel = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("odd label count should panic")
		}
	}()
	renderLabels([]string{"only-key"})
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "C.").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "c_total 1\n") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

// TestHistogramBuckets covers the bucket-assignment edge cases: a sample
// exactly on a bound lands in that bound's bucket (le semantics), negative
// samples land in the first bucket, overflow goes to +Inf, NaN is dropped.
func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("h", "", []float64{1, 2, 4})
	h.Observe(1) // exactly on a bound: belongs to le="1"
	h.Observe(-5)
	h.Observe(1e12)
	h.Observe(math.NaN())
	if got := h.snapshotBuckets(); got[0] != 2 || got[1] != 0 || got[2] != 0 || got[3] != 1 {
		t.Errorf("buckets = %v, want [2 0 0 1]", got)
	}
	if h.Count() != 3 {
		t.Errorf("Count = %d, want 3 (NaN dropped)", h.Count())
	}
	if h.Sum() != 1-5+1e12 {
		t.Errorf("Sum = %v", h.Sum())
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(0.5, 2, 3)
	if len(exp) != 3 || exp[0] != 0.5 || exp[1] != 1 || exp[2] != 2 {
		t.Errorf("ExpBuckets = %v", exp)
	}
	lin := LinearBuckets(10, 5, 3)
	if len(lin) != 3 || lin[0] != 10 || lin[1] != 15 || lin[2] != 20 {
		t.Errorf("LinearBuckets = %v", lin)
	}
	for _, f := range []func(){
		func() { ExpBuckets(0, 2, 3) },
		func() { ExpBuckets(1, 1, 3) },
		func() { LinearBuckets(0, 0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("degenerate bucket parameters should panic")
				}
			}()
			f()
		}()
	}
}

// TestRegistryIdempotent: the same name+labels returns the same instrument;
// a kind clash panics; differing buckets on re-registration keep the first
// layout.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("same_total", "first help wins", "k", "v")
	c2 := r.Counter("same_total", "ignored", "k", "v")
	if c1 != c2 {
		t.Error("same counter name+labels produced distinct instruments")
	}
	if r.Counter("same_total", "", "k", "other") == c1 {
		t.Error("different labels must produce a distinct instrument")
	}
	h1 := r.Histogram("hist", "", []float64{1, 2})
	h2 := r.Histogram("hist", "", []float64{7, 8, 9})
	if h1 != h2 || len(h2.bounds) != 2 {
		t.Error("histogram re-registration must keep the first bucket layout")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch should panic")
		}
	}()
	r.Gauge("same_total", "", "k", "v")
}

func TestHistogramRejectsUnsortedBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-ascending buckets should panic")
		}
	}()
	NewRegistry().Histogram("bad", "", []float64{1, 1})
}

// TestNilSafety: every instrument and registry method must be a no-op on a
// nil receiver — that is the entire disabled-observability contract.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x", "")
	g := reg.Gauge("x", "")
	h := reg.Histogram("x", "", DefTimeBuckets)
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(-1)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments must read as zero")
	}
	if reg.Snapshot() != nil {
		t.Error("nil registry Snapshot should be nil")
	}
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}

	var rec *Recorder
	if rec.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	rec.Decision(DecisionEvent{})
	if rec.WithSession(3) != nil {
		t.Error("nil recorder WithSession should stay nil")
	}
	if err := rec.Close(); err != nil {
		t.Errorf("nil recorder Close: %v", err)
	}
	if rec.Registry() != nil {
		t.Error("nil recorder Registry should be nil")
	}
}

// TestConcurrentAccess hammers registration and observation from many
// goroutines; run with -race. Totals must balance exactly.
func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const n = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				// Re-create handles every iteration: registration must be
				// cheap and idempotent under contention.
				r.Counter("cc_total", "").Inc()
				r.Gauge("cg", "").Add(1)
				r.Histogram("ch", "", []float64{0.5, 1}).Observe(float64(i%3) / 2)
				r.Counter("cl_total", "", "worker", string(rune('a'+w))).Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("cc_total", "").Value(); got != workers*n {
		t.Errorf("counter = %d, want %d", got, workers*n)
	}
	if got := r.Gauge("cg", "").Value(); got != workers*n {
		t.Errorf("gauge = %v, want %d", got, workers*n)
	}
	h := r.Histogram("ch", "", []float64{0.5, 1})
	if h.Count() != workers*n {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*n)
	}
	// Samples cycle 0, 0.5, 1 — all <= 1, so the overflow bucket is empty
	// and buckets must sum to the count.
	b := h.snapshotBuckets()
	if b[2] != 0 || b[0]+b[1] != workers*n {
		t.Errorf("buckets = %v", b)
	}
	var total uint64
	for w := 0; w < workers; w++ {
		total += r.Counter("cl_total", "", "worker", string(rune('a'+w))).Value()
	}
	if total != workers*n {
		t.Errorf("labelled counters sum to %d, want %d", total, workers*n)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("s_total", "").Add(4)
	r.Gauge("s_gauge", "").Set(1.5)
	h := r.Histogram("s_hist", "", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(100)
	snap := r.Snapshot()
	if snap["s_total"] != uint64(4) {
		t.Errorf("counter snapshot = %v", snap["s_total"])
	}
	if snap["s_gauge"] != 1.5 {
		t.Errorf("gauge snapshot = %v", snap["s_gauge"])
	}
	hs, ok := snap["s_hist"].(map[string]any)
	if !ok {
		t.Fatalf("histogram snapshot = %T", snap["s_hist"])
	}
	if hs["count"] != uint64(2) || hs["sum"] != 100.5 {
		t.Errorf("histogram snapshot = %v", hs)
	}
	buckets := hs["buckets"].(map[string]uint64)
	if buckets["1"] != 1 || buckets["10"] != 1 || buckets["+Inf"] != 2 {
		t.Errorf("buckets = %v", buckets)
	}
}

// captureSink records events for recorder tests.
type captureSink struct {
	mu     sync.Mutex
	events []DecisionEvent
	closed int
}

func (s *captureSink) Decision(ev DecisionEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, ev)
}

func (s *captureSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed++
	return nil
}

// TestRecorderDecision: one event must update every relevant metric and
// reach the sink with the recorder's session stamped on it.
func TestRecorderDecision(t *testing.T) {
	reg := NewRegistry()
	sink := &captureSink{}
	rec := NewRecorder(reg, sink).WithSession(7)
	if !rec.Enabled() {
		t.Fatal("recorder with registry+sink should be enabled")
	}
	rec.Decision(DecisionEvent{Algorithm: "RobustMPC", ChunkRecord: model.ChunkRecord{
		Index: 3, BufferBefore: 12, Predicted: 1800,
		Level: 2, Bitrate: 1000, DecisionTime: 0.002,
		DownloadTime: 1.5, Throughput: 2100, Rebuffer: 0.25,
		Retries: 2, Resumes: 1, Fallback: true, BufferAfter: 14,
	}})
	rec.Decision(DecisionEvent{ChunkRecord: model.ChunkRecord{DownloadTime: 0.5, Throughput: 900, BufferAfter: 10}})

	checkCounter := func(name string, want uint64) {
		t.Helper()
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	checkCounter(MetricChunksTotal, 2)
	checkCounter(MetricRebufferEvents, 1)
	checkCounter(MetricRetriesTotal, 2)
	checkCounter(MetricResumesTotal, 1)
	checkCounter(MetricFallbacksTotal, 1)
	if got := reg.Histogram(MetricDownloadSeconds, "", DefTimeBuckets).Count(); got != 2 {
		t.Errorf("download histogram count = %d", got)
	}
	if got := reg.Histogram(MetricRebufferSeconds, "", DefTimeBuckets).Count(); got != 1 {
		t.Errorf("rebuffer histogram count = %d (only stalling chunks observe)", got)
	}
	if got := reg.Gauge(MetricBufferSeconds, "").Value(); got != 10 {
		t.Errorf("buffer gauge = %v, want last BufferAfter", got)
	}
	if len(sink.events) != 2 {
		t.Fatalf("sink got %d events", len(sink.events))
	}
	if sink.events[0].Session != 7 || sink.events[1].Session != 7 {
		t.Errorf("session not stamped: %d, %d", sink.events[0].Session, sink.events[1].Session)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.closed != 1 {
		t.Errorf("sink closed %d times", sink.closed)
	}
}

// TestRecorderNilParts: registry-only and sink-only recorders must both
// work, and the nil-sink recorder must be enabled-false but still safe.
func TestRecorderNilParts(t *testing.T) {
	regOnly := NewRecorder(NewRegistry(), nil)
	if !regOnly.Enabled() {
		t.Error("registry-only recorder should be enabled")
	}
	regOnly.Decision(DecisionEvent{ChunkRecord: model.ChunkRecord{DownloadTime: 1}})
	if err := regOnly.Close(); err != nil {
		t.Fatal(err)
	}

	sink := &captureSink{}
	sinkOnly := NewRecorder(nil, sink)
	if !sinkOnly.Enabled() {
		t.Error("sink-only recorder should be enabled")
	}
	sinkOnly.Decision(DecisionEvent{ChunkRecord: model.ChunkRecord{Index: 1}})
	if len(sink.events) != 1 {
		t.Errorf("sink-only recorder dropped the event")
	}

	neither := NewRecorder(nil, nil)
	if neither.Enabled() {
		t.Error("NewRecorder(nil, nil) should report disabled")
	}
	neither.Decision(DecisionEvent{})
	if err := neither.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Counter("pub_total", "").Inc()
	// Publishing twice under the same name must not panic (expvar panics on
	// duplicate Publish; the wrapper guards it).
	PublishExpvar("obs_test_registry", r)
	PublishExpvar("obs_test_registry", r)
}
