// Package abrsvc is the network-facing half of FastMPC-as-a-service: a
// stdlib-only HTTP control plane that answers per-chunk bitrate decisions
// at table-lookup cost. The paper's design (Sec 5) splits MPC into an
// expensive offline enumeration and a cheap online lookup; this package is
// the server-side shape of that split — tables are built once per
// distinct configuration by the content-addressed registry and then
// shared by every session that registers with equal parameters, so the
// marginal cost of a decision request is a predictor update plus a binary
// search over a few hundred RLE runs.
//
// The service exposes a small versioned JSON API:
//
//	POST   /v1/session       register a session (manifest, weights, player config)
//	POST   /v1/decide        decide the next chunk's level for a session
//	DELETE /v1/session/{id}  forget a session
//	GET    /metrics          Prometheus text exposition
//	GET    /healthz          liveness (503 while draining)
//
// Sessions hold the per-viewer state MPC needs between chunks — the
// error-tracked throughput predictor of Sec 7.1.2 and the last decision —
// in an in-memory store, one map under one lock, with TTL eviction of
// idle sessions. Overload degrades gracefully rather than collapsing: decide
// requests pass a bounded accept queue and a max-in-flight semaphore, and
// excess load is shed with 429 + Retry-After (counted on
// mpcdash_abrsvc_shed_total). An optional fairness hook in the direction
// of the multiplayer streaming literature groups sessions by a
// client-supplied link group and caps each member's assumed throughput at
// its fair share of the group aggregate.
package abrsvc

import (
	"runtime"
	"time"

	"mpcdash/internal/fastmpc"
	"mpcdash/internal/obs"
)

// Metric names the service registers. Exported so dashboards, tests and
// documentation agree on the spelling.
const (
	MetricRequestsTotal   = "mpcdash_abrsvc_requests_total"
	MetricShedTotal       = "mpcdash_abrsvc_shed_total"
	MetricDecisionsTotal  = "mpcdash_abrsvc_decisions_total"
	MetricDecideSeconds   = "mpcdash_abrsvc_decide_seconds"
	MetricRequestSeconds  = "mpcdash_abrsvc_request_seconds"
	MetricSessions        = "mpcdash_abrsvc_sessions"
	MetricSessionsCreated = "mpcdash_abrsvc_sessions_created_total"
	MetricSessionsEvicted = "mpcdash_abrsvc_sessions_evicted_total"
	MetricInflight        = "mpcdash_abrsvc_inflight"
	MetricQueued          = "mpcdash_abrsvc_queued"
)

// Config parameterizes a Service. The zero value is usable: every field
// has a production default.
type Config struct {
	// MaxSessions caps resident sessions; registrations beyond it are
	// rejected with 503. 0 selects 65536.
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this, swept every
	// SessionTTL/4. 0 selects 5 min.
	SessionTTL time.Duration

	// MaxInFlight bounds concurrently executing decide requests. 0
	// selects 4×GOMAXPROCS.
	MaxInFlight int
	// QueueDepth bounds decide requests waiting for an in-flight slot;
	// arrivals beyond it are shed immediately. 0 selects 8×MaxInFlight.
	QueueDepth int
	// QueueWait bounds how long a queued decide request may wait before
	// it is shed. 0 selects 100 ms.
	QueueWait time.Duration

	// Fairness enables the link-group fair-share hook: sessions that
	// registered with a link group see their assumed throughput capped at
	// the group aggregate divided by the member count. Off by default —
	// it couples decisions across sessions, so per-session decision
	// sequences are no longer a pure function of that session's inputs.
	Fairness bool

	// Tables resolves FastMPC decision tables; nil selects the shared
	// process-wide registry, so the service and in-process controllers
	// build each table once.
	Tables *fastmpc.Registry
	// Registry receives the service metrics; nil creates a private one.
	Registry *obs.Registry
	// Sink receives one obs.DecisionEvent per fresh decision; nil
	// disables tracing. The sink is flushed on Server.Shutdown.
	Sink obs.Sink
}

// withDefaults resolves zero fields to their production defaults.
func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 65536
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 5 * time.Minute
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8 * c.MaxInFlight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Tables == nil {
		c.Tables = fastmpc.Shared
	}
	return c
}
