// Command fleet drives large populations of simulated or emulated player
// sessions from a scenario file and streams their outcomes into compact
// per-population aggregates.
//
// Usage:
//
//	fleet [-scenario scenario.json | -sessions N] [-backend sim|emu|svc]
//	      [-svc-url http://host:8404] [-max-inflight N]
//	      [-seed N] [-report out.json]
//	      [-metrics-addr 127.0.0.1:9090] [-print-scenario]
//
// Without -scenario a built-in two-population demo scenario sized by
// -sessions is used; -print-scenario writes that scenario as JSON to
// stdout (a starting point for custom files) and exits. SIGINT/SIGTERM
// drains gracefully: launching stops, in-flight sessions finish and are
// aggregated, the partial report is still printed, and the exit status
// is 130. A second signal ends the process at once.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"mpcdash/internal/cli"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/fleet"
	"mpcdash/internal/obs"
)

func main() { cli.MainStoppable(run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("fleet", stderr)
	var (
		scenarioFile  = fs.String("scenario", "", "scenario JSON file (empty = built-in demo scenario)")
		sessions      = fs.Int("sessions", 10000, "total sessions for the built-in scenario (ignored with -scenario)")
		backend       = fs.String("backend", fleet.BackendSim, "session backend: sim (scales to 100k), emu (real loopback HTTP) or svc (decisions from a live abrd decision service)")
		svcURL        = fs.String("svc-url", "", "svc backend: external abrd base URL (empty = self-host one on 127.0.0.1:0 for the run)")
		maxInflight   = fs.Int("max-inflight", 0, "override the scenario's max concurrently playing sessions (0 = keep the scenario's value)")
		seed          = fs.Int64("seed", 0, "override the scenario seed (0 = keep the file's seed)")
		emuTimeScale  = fs.Float64("emu-timescale", 0, "wall-clock compression for the emu backend (0 = default)")
		reportOut     = fs.String("report", "", "write the JSON report to this file")
		metricsAddr   = fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address during the run (empty = disabled)")
		printScenario = fs.Bool("print-scenario", false, "print the effective scenario as JSON and exit")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ParseStatus(err)
	}

	sc := fleet.DefaultScenario(*sessions)
	if *backend == fleet.BackendSvc {
		// The built-in demo has a buffer-based population the decision
		// service cannot serve; the svc demo is all table-lookup MPC.
		sc = fleet.SvcDemoScenario(*sessions)
	}
	if *scenarioFile != "" {
		var err error
		sc, err = fleet.LoadScenario(*scenarioFile)
		if err != nil {
			return cli.Fail(fs, err)
		}
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *maxInflight > 0 {
		sc.MaxInFlight = *maxInflight
	}
	if *printScenario {
		if err := sc.WriteJSON(stdout); err != nil {
			return cli.Fail(fs, err)
		}
		return 0
	}

	opt := fleet.Options{
		Backend:      *backend,
		EmuTimeScale: *emuTimeScale,
		SvcURL:       *svcURL,
	}
	if *metricsAddr != "" {
		// The metrics endpoint lives until run returns, past a drain.
		debugCtx, stopDebug := context.WithCancel(context.WithoutCancel(ctx))
		defer stopDebug()
		reg := obs.NewRegistry()
		obs.PublishExpvar("fleet", reg)
		dbg, err := obs.ServeDebug(debugCtx, *metricsAddr, reg)
		if err != nil {
			return cli.Fail(fs, err)
		}
		fmt.Fprintf(stdout, "metrics at http://%s/metrics, profiles at http://%s/debug/pprof/\n", dbg, dbg)
		opt.Registry = reg
	}

	f, err := fleet.New(sc, opt)
	if err != nil {
		return cli.Fail(fs, err)
	}

	var total int
	for _, p := range sc.Populations {
		total += p.Sessions
	}
	fmt.Fprintf(stdout, "scenario %q: %d sessions in %d populations on the %s backend (seed %d)\n",
		sc.Name, total, len(sc.Populations), *backend, sc.Seed)

	start := time.Now()
	rep, runErr := f.Run(ctx)
	elapsed := time.Since(start)
	if runErr == context.Canceled {
		fmt.Fprintln(stdout, "interrupted: drained in-flight sessions, reporting the partial run")
	} else if runErr != nil {
		return cli.Fail(fs, runErr)
	}

	fmt.Fprintln(stdout)
	if err := rep.WriteTable(stdout); err != nil {
		return cli.Fail(fs, err)
	}
	var completed int64
	for _, p := range rep.Populations {
		completed += p.Completed
	}
	fmt.Fprintf(stdout, "\n%d sessions in %.2f s (%.0f sessions/s)\n",
		completed, elapsed.Seconds(), float64(completed)/elapsed.Seconds())
	if st := fastmpc.TableCacheStats(); st.Builds+st.MemoryHits > 0 {
		fmt.Fprintf(stdout, "fastmpc tables: %d built, %d shared in-process\n", st.Builds, st.MemoryHits)
	}

	if *reportOut != "" {
		b, err := rep.JSON()
		if err != nil {
			return cli.Fail(fs, err)
		}
		if err := os.WriteFile(*reportOut, b, 0o644); err != nil {
			return cli.Fail(fs, err)
		}
		fmt.Fprintf(stdout, "report written to %s\n", *reportOut)
	}
	if runErr != nil {
		return 130
	}
	return 0
}
