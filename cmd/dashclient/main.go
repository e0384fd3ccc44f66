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
	"flag"
	"fmt"
	"os"
	"time"

	"mpcdash/internal/emu"
	"mpcdash/internal/export"
	"mpcdash/internal/model"
	"mpcdash/internal/obs"
	"mpcdash/internal/runner"
	"mpcdash/internal/sim"
)

func main() {
	var (
		baseURL     = flag.String("url", "http://127.0.0.1:8080", "dashserver base URL")
		algName     = flag.String("alg", "RobustMPC", "RB, BB, FESTIVE, dash.js, MPC, RobustMPC, FastMPC")
		scale       = flag.Float64("scale", 1, "time-compression factor; must match the server's")
		bmax        = flag.Float64("buffer", 30, "playout buffer cap in media seconds")
		horizon     = flag.Int("horizon", 5, "MPC look-ahead chunks")
		timeout     = flag.Duration("timeout", 30*time.Minute, "session wall-clock timeout")
		csvOut      = flag.String("csv", "", "write the per-chunk log as CSV to this file")
		retries     = flag.Int("retries", emu.DefaultRetries, "extra download attempts per chunk (0 = fail on first error)")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event JSON of the session to this file")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while the session runs (empty = disabled)")
	)
	flag.Parse()

	alg, err := runner.Lookup(runner.Catalog(model.Balanced, model.QIdentity, *bmax, *horizon), *algName)
	if err != nil {
		fatal(err)
	}

	// Observability: a live metrics endpoint and/or a Chrome trace sink.
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		obs.PublishExpvar("mpcdash", reg)
		dbg, err := obs.ServeDebug(*metricsAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("metrics at http://%s/metrics, profiles at http://%s/debug/pprof/\n", dbg, dbg)
	}
	var sink obs.Sink
	var traceFile *os.File
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		sink = obs.NewChromeTrace(traceFile)
	}
	var rec *obs.Recorder
	if reg != nil || sink != nil {
		rec = obs.NewRecorder(reg, sink)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

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
		fatal(err)
	}
	if err := rec.Close(); err != nil {
		fatal(err)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s — open in chrome://tracing or https://ui.perfetto.dev\n", *traceOut)
	}

	metrics := res.ComputeMetrics(model.QIdentity)
	fmt.Printf("algorithm     %s\n", res.Algorithm)
	fmt.Printf("QoE           %.0f\n", res.QoE(model.Balanced, model.QIdentity))
	fmt.Printf("avg bitrate   %.0f kbps\n", metrics.AvgBitrate)
	fmt.Printf("switches      %d\n", metrics.Switches)
	fmt.Printf("rebuffer      %.2f media-s in %d events\n", metrics.RebufferTime, metrics.RebufferEvents)
	fmt.Printf("startup       %.2f media-s\n", res.StartupDelay)
	fmt.Printf("transport     %d retries, %d range resumes, %d lowest-level fallbacks\n",
		metrics.Retries, metrics.Resumes, metrics.Fallbacks)

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		if err := export.WriteCSV(f, res); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("per-chunk CSV written to %s\n", *csvOut)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dashclient: %v\n", err)
	os.Exit(1)
}
