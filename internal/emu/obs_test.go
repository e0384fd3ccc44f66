package emu

import (
	"context"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"mpcdash/internal/abr"
	"mpcdash/internal/httpstrict"
	"mpcdash/internal/obs"
	"mpcdash/internal/predictor"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// recordSink captures decision events for integration tests.
type recordSink struct {
	mu     sync.Mutex
	events []obs.DecisionEvent
}

func (s *recordSink) Decision(ev obs.DecisionEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, ev)
}

func (s *recordSink) Close() error { return nil }

// TestClientEmitsDecisionEvents: a live session with a recorder attached
// must emit one complete event per chunk — controller input, choice,
// solver wall time and download outcome — and update the session metrics.
func TestClientEmitsDecisionEvents(t *testing.T) {
	m := testVideo(t, 4)
	tr, err := trace.FromRates("obs", 60, []float64{3000})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sink := &recordSink{}
	res, err := faultySession(t, m, tr, 10, FaultConfig{},
		func(c *Client) { c.Obs = obs.NewRecorder(reg, sink) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.events) != len(res.Chunks) {
		t.Fatalf("events = %d, chunks = %d", len(sink.events), len(res.Chunks))
	}
	for i, ev := range sink.events {
		if !reflect.DeepEqual(ev.ChunkRecord, res.Chunks[i]) {
			t.Errorf("event %d record (%+v) differs from the chunk record (%+v)", i, ev.ChunkRecord, res.Chunks[i])
		}
		if ev.DecisionTime <= 0 {
			t.Errorf("event %d has no solver wall time", i)
		}
		if len(ev.Candidates) != len(m.Ladder) {
			t.Errorf("event %d candidates = %v, want the ladder", i, ev.Candidates)
		}
	}
	if got := reg.Counter(obs.MetricChunksTotal, "").Value(); got != uint64(len(res.Chunks)) {
		t.Errorf("%s = %d, want %d", obs.MetricChunksTotal, got, len(res.Chunks))
	}
	if got := reg.Histogram(obs.MetricDownloadSeconds, "", obs.DefTimeBuckets).Count(); got != uint64(len(res.Chunks)) {
		t.Errorf("download histogram count = %d, want %d", got, len(res.Chunks))
	}
	if got := reg.Histogram(obs.MetricDecisionSeconds, "", obs.DefTimeBuckets).Count(); got != uint64(len(res.Chunks)) {
		t.Errorf("decision histogram count = %d, want %d", got, len(res.Chunks))
	}
}

// TestAttemptLogRecorded: the per-attempt transport timing must reach the
// chunk records — failed attempts carry the error, retried attempts the
// backoff that preceded them, and all timestamps are media-time ordered.
func TestAttemptLogRecorded(t *testing.T) {
	m := testVideo(t, 3)
	tr, err := trace.FromRates("al", 60, []float64{20000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := faultySession(t, m, tr, 10, FaultConfig{},
		func(c *Client) { c.Retries = 5; c.BackoffBase = 20 * time.Millisecond },
		StatusFaults(http.StatusServiceUnavailable, 2, isChunkRequest))
	if err != nil {
		t.Fatal(err)
	}
	var failed, backedOff int
	for _, c := range res.Chunks {
		if len(c.Attempts) < 1 {
			t.Fatalf("chunk %d has no attempt log", c.Index)
		}
		if len(c.Attempts) != c.Retries+1 {
			t.Errorf("chunk %d: %d attempts for %d retries", c.Index, len(c.Attempts), c.Retries)
		}
		last := c.Attempts[len(c.Attempts)-1]
		if last.Error != "" {
			t.Errorf("chunk %d: final attempt of a successful chunk has error %q", c.Index, last.Error)
		}
		prevEnd := 0.0
		for i, a := range c.Attempts {
			if i > 0 && a.Error == "" && i < len(c.Attempts)-1 {
				t.Errorf("chunk %d: successful attempt %d is not last", c.Index, i)
			}
			if a.Error != "" {
				failed++
			}
			if a.Backoff > 0 {
				backedOff++
				if i == 0 {
					t.Errorf("chunk %d: first attempt claims a backoff", c.Index)
				}
			}
			if a.Start < prevEnd-1e-9 {
				t.Errorf("chunk %d: attempt %d starts at %v before previous ended at %v", c.Index, i, a.Start, prevEnd)
			}
			if a.Duration < 0 {
				t.Errorf("chunk %d: attempt %d has negative duration", c.Index, i)
			}
			prevEnd = a.Start + a.Duration
		}
	}
	if failed < 2 {
		t.Errorf("recorded %d failed attempts, want >= 2 (two injected 503s)", failed)
	}
	if backedOff < 2 {
		t.Errorf("recorded %d backed-off attempts, want >= 2", backedOff)
	}
}

// TestServerInstrumented: the middleware installed by Instrument must count
// the manifest and every chunk request, measure request latency and
// delivery throughput, and total the bytes written.
func TestServerInstrumented(t *testing.T) {
	m := testVideo(t, 4)
	tr, err := trace.FromRates("si", 60, []float64{4000})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv := NewServer(m)
	srv.Instrument(reg)
	srv.Wrap(httpstrict.Middleware(t))
	base, err := srv.Start(NewShaper(tr.Scale(10, 10)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	client := &Client{
		BaseURL:    base,
		Controller: abr.NewFixed(1)(m),
		Predictor:  predictor.NewHarmonicMean(5),
		Config:     sim.Config{BufferMax: 30},
		TimeScale:  10,
		Retries:    DefaultRetries,
	}
	res, err := client.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The client returns once it has read the last chunk's body, which can
	// be before the middleware records that request. Close drains the
	// handlers, so the counters are final after it.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter(MetricServerRequests, "", "handler", "manifest").Value(); got != 1 {
		t.Errorf("manifest requests = %d, want 1", got)
	}
	if got := reg.Counter(MetricServerRequests, "", "handler", "chunk").Value(); got != uint64(len(res.Chunks)) {
		t.Errorf("chunk requests = %d, want %d", got, len(res.Chunks))
	}
	if got := reg.Histogram(MetricServerRequestSeconds, "", obs.DefTimeBuckets, "handler", "chunk").Count(); got != uint64(len(res.Chunks)) {
		t.Errorf("chunk latency observations = %d, want %d", got, len(res.Chunks))
	}
	if got := reg.Histogram(MetricServerThroughputKbps, "", obs.DefKbpsBuckets).Count(); got != uint64(len(res.Chunks)) {
		t.Errorf("throughput observations = %d, want %d", got, len(res.Chunks))
	}
	var wantBytes uint64
	for _, c := range res.Chunks {
		wantBytes += uint64(c.SizeKbits * 1000 / 8)
	}
	got := reg.Counter(MetricServerBytesTotal, "").Value()
	// The byte counter also includes the manifest body; chunk payloads set
	// the floor.
	if got < wantBytes {
		t.Errorf("bytes total = %d, want >= %d (chunk payloads)", got, wantBytes)
	}
}
