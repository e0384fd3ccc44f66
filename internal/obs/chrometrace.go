package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// This file exports decision events in the Chrome trace-event JSON format
// so a full session timeline opens directly in chrome://tracing or
// Perfetto (ui.perfetto.dev): one complete span per chunk on the network
// track, the controller's solver time on its own track, stalls and
// buffer-full waits on the playback track, per-attempt transport activity
// (retries, backoff, Range resumes) on the transport track, and counter
// tracks for buffer level and predicted vs. actual throughput.
//
// The timeline is in media time (the session clock every other number in
// the repo uses); ts/dur are microseconds as the format requires. The one
// exception is the decide span, whose duration is real solver wall time —
// it answers "how expensive was this decision", not "when did the next
// chunk start".

// Trace-event thread ids, one per track.
const (
	tidPlayback   = 1 // stalls and buffer-full waits
	tidController = 2 // decide spans
	tidNetwork    = 3 // one span per chunk download
	tidTransport  = 4 // per-attempt spans: backoff, attempt, resume
)

// traceEvent is one entry of the trace-event JSON array.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

const usPerS = 1e6

// eventsToTrace flattens decision events into trace events, including the
// metadata that names each process (session) and thread (track).
func eventsToTrace(evs []DecisionEvent) []traceEvent {
	out := make([]traceEvent, 0, 8*len(evs))
	named := make(map[int]bool)
	for _, ev := range evs {
		pid := ev.Session + 1
		if !named[pid] {
			named[pid] = true
			name := ev.Algorithm
			if name == "" {
				name = "session"
			}
			out = append(out,
				metaEvent(pid, 0, "process_name", fmt.Sprintf("%s session %d", name, ev.Session)),
				metaEvent(pid, tidPlayback, "thread_name", "playback"),
				metaEvent(pid, tidController, "thread_name", "controller"),
				metaEvent(pid, tidNetwork, "thread_name", "network"),
				metaEvent(pid, tidTransport, "thread_name", "transport"),
			)
		}
		out = append(out, chunkEvents(pid, ev)...)
	}
	// Stable presentation: trace viewers sort internally, but a
	// time-ordered file is diffable and easier to eyeball.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Ph == "M" != (out[j].Ph == "M") {
			return out[i].Ph == "M"
		}
		return out[i].Ts < out[j].Ts
	})
	return out
}

func metaEvent(pid, tid int, name, value string) traceEvent {
	return traceEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": value}}
}

// chunkEvents renders one decision event: decide span, download span,
// attempt sub-spans, stall/wait spans and the counter samples.
func chunkEvents(pid int, ev DecisionEvent) []traceEvent {
	out := make([]traceEvent, 0, 8)

	// Controller decision. Duration is real wall time (µs) at whole-ns
	// resolution; a sub-µs decision is floored so the span stays visible.
	solverUs := time.Duration(ev.DecisionTime*float64(time.Second)).Seconds() * usPerS
	out = append(out, traceEvent{
		Name: "decide", Cat: "controller", Ph: "X",
		Ts: ev.StartTime * usPerS, Dur: max(solverUs, 1), Pid: pid, Tid: tidController,
		Args: map[string]any{
			"chunk":           ev.Index,
			"buffer_s":        ev.BufferBefore,
			"prev_level":      ev.Prev,
			"chosen_level":    ev.Level,
			"chosen_kbps":     ev.Bitrate,
			"candidates_kbps": ev.Candidates,
			"predicted_kbps":  ev.Predicted,
			"solver_us":       solverUs,
		},
	})

	// The chunk download: one complete span per chunk.
	out = append(out, traceEvent{
		Name: fmt.Sprintf("chunk %d", ev.Index), Cat: "network", Ph: "X",
		Ts: ev.StartTime * usPerS, Dur: ev.DownloadTime * usPerS, Pid: pid, Tid: tidNetwork,
		Args: map[string]any{
			"level":           ev.Level,
			"bitrate_kbps":    ev.Bitrate,
			"size_kbits":      ev.SizeKbits,
			"throughput_kbps": ev.Throughput,
			"predicted_kbps":  ev.Predicted,
			"retries":         ev.Retries,
			"resumes":         ev.Resumes,
			"fallback":        ev.Fallback,
		},
	})

	// Transport attempts, with the backoff that preceded each.
	for i, a := range ev.Attempts {
		if a.Backoff > 0 {
			out = append(out, traceEvent{
				Name: "backoff", Cat: "transport", Ph: "X",
				Ts: (a.Start - a.Backoff) * usPerS, Dur: a.Backoff * usPerS,
				Pid: pid, Tid: tidTransport,
			})
		}
		name := "attempt"
		if a.Resumed {
			name = "resume"
		}
		out = append(out, traceEvent{
			Name: name, Cat: "transport", Ph: "X",
			Ts: a.Start * usPerS, Dur: a.Duration * usPerS, Pid: pid, Tid: tidTransport,
			Args: map[string]any{"n": i + 1, "level": a.Level, "error": a.Error},
		})
	}

	// Playback interruptions: the stall begins once the buffer runs dry,
	// i.e. Buffer media-seconds into the download.
	if ev.Rebuffer > 0 {
		out = append(out, traceEvent{
			Name: "stall", Cat: "playback", Ph: "X",
			Ts: (ev.StartTime + ev.BufferBefore) * usPerS, Dur: ev.Rebuffer * usPerS,
			Pid: pid, Tid: tidPlayback,
			Args: map[string]any{"chunk": ev.Index, "stall_s": ev.Rebuffer},
		})
	}
	if ev.Wait > 0 {
		out = append(out, traceEvent{
			Name: "wait (buffer full)", Cat: "playback", Ph: "X",
			Ts: (ev.StartTime + ev.DownloadTime) * usPerS, Dur: ev.Wait * usPerS,
			Pid: pid, Tid: tidPlayback,
			Args: map[string]any{"chunk": ev.Index},
		})
	}

	// Counter tracks: buffer level at decision and after the chunk,
	// predicted vs. actual throughput per chunk.
	out = append(out,
		traceEvent{
			Name: "buffer_s", Ph: "C", Ts: ev.StartTime * usPerS, Pid: pid, Tid: 0,
			Args: map[string]any{"media_s": ev.BufferBefore},
		},
		traceEvent{
			Name: "buffer_s", Ph: "C", Ts: (ev.StartTime + ev.DownloadTime + ev.Wait) * usPerS, Pid: pid, Tid: 0,
			Args: map[string]any{"media_s": ev.BufferAfter},
		},
		traceEvent{
			Name: "throughput_kbps", Ph: "C", Ts: ev.StartTime * usPerS, Pid: pid, Tid: 0,
			Args: map[string]any{"predicted": ev.Predicted, "actual": ev.Throughput},
		},
	)
	return out
}

// chromeFile is the object form of the trace-event format; Perfetto and
// chrome://tracing both accept it.
type chromeFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the events as one trace-event JSON document.
func WriteChromeTrace(w io.Writer, evs []DecisionEvent) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(chromeFile{TraceEvents: eventsToTrace(evs), DisplayTimeUnit: "ms"}); err != nil {
		return fmt.Errorf("obs: chrome trace: %w", err)
	}
	return nil
}

// ChromeTrace is a Sink that buffers decision events and writes them as a
// Chrome trace-event JSON document on Close. Safe for concurrent use; it
// does not close the underlying writer.
type ChromeTrace struct {
	mu     sync.Mutex
	w      io.Writer
	events []DecisionEvent
	closed bool
}

// NewChromeTrace returns a sink writing to w on Close.
func NewChromeTrace(w io.Writer) *ChromeTrace {
	return &ChromeTrace{w: w}
}

// Decision implements Sink.
func (c *ChromeTrace) Decision(ev DecisionEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.events = append(c.events, ev)
	}
}

// Close renders and writes the buffered events. Subsequent events are
// dropped; Close is idempotent (the second call writes nothing). The
// buffer is detached under the lock but rendered and written outside it —
// serializing the trace can mean megabytes of file I/O, and concurrent
// Decision callers must not stall behind it (they observe closed and drop,
// the lockscope discipline for every sink in this package).
func (c *ChromeTrace) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	events := c.events
	c.events = nil
	c.mu.Unlock()
	return WriteChromeTrace(c.w, events)
}
