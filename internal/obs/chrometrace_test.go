package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"mpcdash/internal/model"
)

// traceDoc mirrors the written document for test-side decoding.
type traceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func decodeTrace(t *testing.T, buf *bytes.Buffer) traceDoc {
	t.Helper()
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	return doc
}

// sampleEvents builds a two-chunk session with a stall, a buffer-full wait
// and a retried download.
func sampleEvents() []DecisionEvent {
	return []DecisionEvent{
		{
			Algorithm: "RobustMPC", Prev: -1,
			Candidates: []float64{350, 600, 1000},
			ChunkRecord: model.ChunkRecord{
				Index: 0, Level: 1, Bitrate: 600, SizeKbits: 2400,
				StartTime: 0, DownloadTime: 3, Throughput: 800,
				BufferBefore: 0, BufferAfter: 4, Rebuffer: 3,
				Predicted: 1200, DecisionTime: 400e-6,
			},
		},
		{
			Algorithm: "RobustMPC", Prev: 1,
			Candidates: []float64{350, 600, 1000},
			ChunkRecord: model.ChunkRecord{
				Index: 1, Level: 0, Bitrate: 350, SizeKbits: 1400,
				StartTime: 3, DownloadTime: 1, Throughput: 1400,
				BufferBefore: 4, BufferAfter: 6.5, Wait: 0.5,
				Predicted: 900, DecisionTime: 250e-6,
				Retries: 1, Resumes: 1,
				Attempts: []model.AttemptRecord{
					{Start: 3, Duration: 0.4, Level: 0, Error: "unexpected EOF"},
					{Start: 3.5, Duration: 0.5, Backoff: 0.1, Level: 0, Resumed: true},
				},
			},
		},
	}
}

// TestChromeTraceStructure is the acceptance check for the exporter: the
// document must be valid JSON with one decide and one download span per
// chunk, stall/wait spans where the session stalled/idled, per-attempt
// transport spans, counter samples for buffer and throughput, and the
// metadata naming tracks.
func TestChromeTraceStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, &buf)
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	count := func(ph, name string, tid int) int {
		n := 0
		for _, e := range doc.TraceEvents {
			if e.Ph == ph && e.Name == name && (tid < 0 || e.Tid == tid) {
				n++
			}
		}
		return n
	}
	if got := count("X", "decide", tidController); got != 2 {
		t.Errorf("decide spans = %d, want one per chunk", got)
	}
	for i := 0; i < 2; i++ {
		if got := count("X", fmt.Sprintf("chunk %d", i), tidNetwork); got != 1 {
			t.Errorf("chunk %d download spans = %d, want 1", i, got)
		}
	}
	if got := count("X", "stall", tidPlayback); got != 1 {
		t.Errorf("stall spans = %d, want 1", got)
	}
	if got := count("X", "wait (buffer full)", tidPlayback); got != 1 {
		t.Errorf("wait spans = %d, want 1", got)
	}
	// Chunk 1's attempt log: one failed plain attempt, one Range resume
	// preceded by a backoff.
	if got := count("X", "attempt", tidTransport); got != 1 {
		t.Errorf("attempt spans = %d, want 1", got)
	}
	if got := count("X", "resume", tidTransport); got != 1 {
		t.Errorf("resume spans = %d, want 1", got)
	}
	if got := count("X", "backoff", tidTransport); got != 1 {
		t.Errorf("backoff spans = %d, want 1", got)
	}
	if got := count("C", "buffer_s", -1); got != 4 {
		t.Errorf("buffer counter samples = %d, want 2 per chunk", got)
	}
	if got := count("C", "throughput_kbps", -1); got != 2 {
		t.Errorf("throughput counter samples = %d, want 1 per chunk", got)
	}
	if got := count("M", "process_name", -1); got != 1 {
		t.Errorf("process_name metadata = %d, want 1 for a single session", got)
	}
	if got := count("M", "thread_name", -1); got != 4 {
		t.Errorf("thread_name metadata = %d, want 4 tracks", got)
	}

	// Span timing: the stall starts when the buffer runs dry (Buffer
	// media-seconds into chunk 0's download — here immediately) and lasts
	// the rebuffer time; a sub-µs solver still gets a visible span.
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X" && e.Name == "stall":
			if e.Ts != 0 || e.Dur != 3*usPerS {
				t.Errorf("stall span ts=%v dur=%v", e.Ts, e.Dur)
			}
		case e.Ph == "X" && e.Name == "decide":
			if e.Dur < 1 {
				t.Errorf("decide span dur=%v, want >= 1 µs", e.Dur)
			}
		case e.Ph == "X" && e.Name == "chunk 1":
			if e.Ts != 3*usPerS || e.Dur != 1*usPerS {
				t.Errorf("chunk 1 span ts=%v dur=%v", e.Ts, e.Dur)
			}
		case e.Ph == "X" && e.Name == "backoff":
			if e.Ts != 3.4*usPerS || e.Dur != 0.1*usPerS {
				t.Errorf("backoff span ts=%v dur=%v", e.Ts, e.Dur)
			}
		}
	}

	// Metadata sorts first; the rest is time-ordered.
	lastMeta := -1
	for i, e := range doc.TraceEvents {
		if e.Ph == "M" {
			if i != lastMeta+1 {
				t.Fatalf("metadata event at index %d after non-metadata", i)
			}
			lastMeta = i
		}
	}
	for i := lastMeta + 2; i < len(doc.TraceEvents); i++ {
		if doc.TraceEvents[i].Ts < doc.TraceEvents[i-1].Ts {
			t.Fatalf("events out of time order at index %d", i)
		}
	}
}

// TestChromeTraceSessions: events from different sessions map to distinct
// pids, each with its own process/thread naming.
func TestChromeTraceSessions(t *testing.T) {
	evs := sampleEvents()
	evs[1].Session = 1
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, &buf)
	pids := map[int]bool{}
	procNames := 0
	for _, e := range doc.TraceEvents {
		pids[e.Pid] = true
		if e.Ph == "M" && e.Name == "process_name" {
			procNames++
		}
	}
	if !pids[1] || !pids[2] {
		t.Errorf("pids = %v, want sessions 0 and 1 as pids 1 and 2", pids)
	}
	if procNames != 2 {
		t.Errorf("process_name metadata = %d, want one per session", procNames)
	}
}

// TestChromeTraceSinkConcurrent: the sink must accept concurrent Decision
// calls (runner workers share it) and Close must be idempotent, writing
// exactly one document.
func TestChromeTraceSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeTrace(&buf)
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sink.Decision(DecisionEvent{Session: s, ChunkRecord: model.ChunkRecord{Index: i, StartTime: float64(i), DownloadTime: 1}})
			}
		}(s)
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != size {
		t.Error("second Close wrote more output")
	}
	// Dropped after close.
	sink.Decision(DecisionEvent{})

	doc := decodeTrace(t, &buf)
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Tid == tidNetwork {
			spans++
		}
	}
	if spans != 200 {
		t.Errorf("download spans = %d, want 200", spans)
	}
}

// TestEventsFromSession: the offline reconstruction used by `mpcdash
// -trace-out` must track previous levels across chunks and carry the
// transport counters through.
func TestEventsFromSession(t *testing.T) {
	res := &model.SessionResult{
		Algorithm: "BB",
		Chunks: []model.ChunkRecord{
			{Index: 0, Level: 2, Bitrate: 1000, StartTime: 0, DownloadTime: 2, BufferBefore: 0, BufferAfter: 2, DecisionTime: 0.001},
			{Index: 1, Level: 1, Bitrate: 600, StartTime: 2, DownloadTime: 1, BufferBefore: 2, BufferAfter: 5, Retries: 3},
		},
	}
	evs := EventsFromSession(res)
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Prev != -1 || evs[1].Prev != 2 {
		t.Errorf("prev levels = %d, %d; want -1, 2", evs[0].Prev, evs[1].Prev)
	}
	if evs[0].DecisionTime != 0.001 {
		t.Errorf("DecisionTime = %v", evs[0].DecisionTime)
	}
	if evs[1].Retries != 3 || evs[1].Algorithm != "BB" {
		t.Errorf("event 1 = %+v", evs[1])
	}
}
