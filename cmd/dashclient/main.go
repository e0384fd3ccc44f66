// Command dashclient plays a video from a dashserver (or any server
// exposing the same manifest + segment layout) through a chosen adaptation
// algorithm, over real HTTP, and prints the session summary. Together with
// dashserver it forms the two-machine emulation setup of Sec 7.2.
//
// Usage:
//
//	dashclient [-url http://127.0.0.1:8080] [-alg RobustMPC] [-scale 1]
//	           [-csv session.csv] [-trace-out session.trace.json]
//	           [-metrics-addr 127.0.0.1:9091]
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"mpcdash/internal/cli"
	"mpcdash/internal/emu"
	"mpcdash/internal/export"
	"mpcdash/internal/model"
	"mpcdash/internal/obs"
	"mpcdash/internal/runner"
	"mpcdash/internal/sim"
)

func main() { cli.MainStoppable(run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("dashclient", stderr)
	var (
		baseURL     = fs.String("url", "http://127.0.0.1:8080", "dashserver base URL")
		algName     = fs.String("alg", "RobustMPC", "RB, BB, FESTIVE, dash.js, MPC, RobustMPC, FastMPC, RobustFastMPC")
		scale       = fs.Float64("scale", 1, "time-compression factor; must match the server's")
		bmax        = fs.Float64("buffer", 30, "playout buffer cap in media seconds")
		horizon     = fs.Int("horizon", 5, "MPC look-ahead chunks")
		timeout     = fs.Duration("timeout", 30*time.Minute, "session wall-clock timeout")
		csvOut      = fs.String("csv", "", "write the per-chunk log as CSV to this file")
		retries     = fs.Int("retries", emu.DefaultRetries, "extra download attempts per chunk (0 = fail on first error)")
		traceOut    = fs.String("trace-out", "", "write a Chrome trace-event JSON of the session to this file")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while the session runs (empty = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ParseStatus(err)
	}

	alg, err := runner.Lookup(runner.Catalog(model.Balanced, model.QIdentity, *bmax, *horizon), *algName)
	if err != nil {
		return cli.Fail(fs, err)
	}

	// The session, and the metrics endpoint with it, ends at -timeout.
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	// Observability: a live metrics endpoint and/or a Chrome trace sink.
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		obs.PublishExpvar("mpcdash", reg)
		dbg, err := obs.ServeDebug(ctx, *metricsAddr, reg)
		if err != nil {
			return cli.Fail(fs, err)
		}
		fmt.Fprintf(stdout, "metrics at http://%s/metrics, profiles at http://%s/debug/pprof/\n", dbg, dbg)
	}
	var sink obs.Sink
	var traceFile *os.File
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			return cli.Fail(fs, err)
		}
		defer traceFile.Close()
		sink = obs.NewChromeTrace(traceFile)
	}
	var rec *obs.Recorder
	if reg != nil || sink != nil {
		rec = obs.NewRecorder(reg, sink)
	}

	client := &emu.Client{
		BaseURL:   *baseURL,
		Predictor: alg.Predictor(nil),
		Config: sim.Config{
			BufferMax: *bmax,
			Horizon:   *horizon,
			Startup:   alg.Startup,
			Obs:       rec,
		},
		TimeScale: *scale,
		Retries:   *retries,
	}
	// The controller needs the manifest, which the client fetches; use the
	// deferred-binding helper.
	res, err := client.RunWithController(ctx, alg.Factory)
	if err != nil {
		return cli.Fail(fs, err)
	}
	if err := rec.Close(); err != nil {
		return cli.Fail(fs, err)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return cli.Fail(fs, err)
		}
		fmt.Fprintf(stdout, "trace written to %s — open in chrome://tracing or https://ui.perfetto.dev\n", *traceOut)
	}

	metrics := res.ComputeMetrics(model.QIdentity)
	fmt.Fprintf(stdout, "algorithm     %s\n", res.Algorithm)
	fmt.Fprintf(stdout, "QoE           %.0f\n", res.QoE(model.Balanced, model.QIdentity))
	fmt.Fprintf(stdout, "avg bitrate   %.0f kbps\n", metrics.AvgBitrate)
	fmt.Fprintf(stdout, "switches      %d\n", metrics.Switches)
	fmt.Fprintf(stdout, "rebuffer      %.2f media-s in %d events\n", metrics.RebufferTime, metrics.RebufferEvents)
	fmt.Fprintf(stdout, "startup       %.2f media-s\n", res.StartupDelay)
	fmt.Fprintf(stdout, "transport     %d retries, %d range resumes, %d lowest-level fallbacks\n",
		metrics.Retries, metrics.Resumes, metrics.Fallbacks)

	if *csvOut != "" {
		if err := cli.WriteFile(*csvOut, func(w io.Writer) error { return export.WriteCSV(w, res) }); err != nil {
			return cli.Fail(fs, err)
		}
		fmt.Fprintf(stdout, "per-chunk CSV written to %s\n", *csvOut)
	}
	return 0
}
