// Command abrd runs the ABR decision service: FastMPC as a control plane.
// Players (or the fleet's svc backend) register sessions, then ask for
// each chunk's bitrate over the /v1 JSON API; the server answers at
// table-lookup cost, sharing one decision table across every session with
// an equal configuration. SIGINT/SIGTERM drains gracefully: the listener
// closes, in-flight decisions complete (bounded by -drain), and the trace
// sink is flushed before exit. A second signal ends the process at once.
//
// Usage:
//
//	abrd [-addr 127.0.0.1:8404] [-max-sessions 65536] [-session-ttl 5m]
//	     [-max-inflight 0] [-queue-depth 0] [-queue-wait 100ms]
//	     [-fairness] [-trace-out FILE] [-drain 10s]
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"mpcdash/internal/abrsvc"
	"mpcdash/internal/cli"
	"mpcdash/internal/obs"
)

func main() { cli.MainStoppable(run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("abrd", stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:8404", "listen address")
		maxSessions = fs.Int("max-sessions", 0, "max resident sessions (0 = default 65536)")
		sessionTTL  = fs.Duration("session-ttl", 0, "evict sessions idle longer than this (0 = default 5m)")
		maxInflight = fs.Int("max-inflight", 0, "max concurrently executing decide requests (0 = 4×GOMAXPROCS)")
		queueDepth  = fs.Int("queue-depth", 0, "decide queue depth before immediate shedding (0 = 8×max-inflight)")
		queueWait   = fs.Duration("queue-wait", 0, "max time a decide request may queue before shedding (0 = default 100ms)")
		fairness    = fs.Bool("fairness", false, "enable link-group fair-share throughput capping")
		traceOut    = fs.String("trace-out", "", "write per-decision Chrome trace events to this file (empty = disabled)")
		drain       = fs.Duration("drain", 10*time.Second, "graceful shutdown deadline for in-flight requests")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ParseStatus(err)
	}

	var sink obs.Sink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return cli.Fail(fs, err)
		}
		defer f.Close()
		sink = obs.NewChromeTrace(f)
	}

	reg := obs.NewRegistry()
	obs.PublishExpvar("mpcdash_abrsvc", reg)
	svc := abrsvc.New(abrsvc.Config{
		MaxSessions: *maxSessions,
		SessionTTL:  *sessionTTL,
		MaxInFlight: *maxInflight,
		QueueDepth:  *queueDepth,
		QueueWait:   *queueWait,
		Fairness:    *fairness,
		Registry:    reg,
		Sink:        sink,
	})
	srv, err := svc.Start(*addr)
	if err != nil {
		return cli.Fail(fs, err)
	}
	fmt.Fprintf(stdout, "abrd: decision API at %s/v1, metrics at %s/metrics\n", srv.URL(), srv.URL())
	if *fairness {
		fmt.Fprintln(stdout, "abrd: link-group fairness enabled")
	}

	<-ctx.Done()
	fmt.Fprintf(stdout, "abrd: %v received, draining (deadline %s)\n", context.Cause(ctx), *drain)
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return cli.Fail(fs, fmt.Errorf("drain: %w", err))
	}
	fmt.Fprintln(stdout, "abrd: drained cleanly")
	return 0
}
