// Command mpcdash plays one video session over a throughput trace with a
// chosen adaptation algorithm and prints the per-chunk log and QoE summary.
//
// Usage:
//
//	mpcdash [-alg RobustMPC] [-dataset fcc|hsdpa|synthetic] [-seed N]
//	        [-trace file.txt] [-chunks N] [-verbose]
//	        [-trace-out session.trace.json] [-metrics-addr 127.0.0.1:9090]
//
// The trace comes either from -trace (text format: "duration kbps" per
// line) or from a synthetic dataset generator selected by -dataset/-seed.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"mpcdash"
	"mpcdash/internal/cli"
	"mpcdash/internal/obs"
	"mpcdash/internal/trace"
	"mpcdash/internal/viz"
)

func main() { cli.Main(run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("mpcdash", stderr)
	var (
		algName     = fs.String("alg", "RobustMPC", "algorithm: RB, BB, FESTIVE, dash.js, MPC, RobustMPC, FastMPC, MPC-OPT")
		dataset     = fs.String("dataset", "fcc", "synthetic dataset when no -trace: fcc, hsdpa, synthetic")
		seed        = fs.Int64("seed", 1, "trace generator seed")
		file        = fs.String("trace", "", "trace file (text format) instead of a generated trace")
		chunks      = fs.Int("chunks", 65, "video length in 4-second chunks")
		verbose     = fs.Bool("verbose", false, "print the per-chunk log")
		jsonOut     = fs.String("json", "", "write the full session log as JSON to this file")
		csvOut      = fs.String("csv", "", "write the per-chunk log as CSV to this file")
		traceOut    = fs.String("trace-out", "", "write a Chrome trace-event JSON of the session to this file")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address during the run (empty = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ParseStatus(err)
	}

	video, err := mpcdash.NewVideo([]float64{350, 600, 1000, 2000, 3000}, *chunks, 4)
	if err != nil {
		return cli.Fail(fs, err)
	}

	algs := mpcdash.Algorithms()
	i := slices.IndexFunc(algs, func(a mpcdash.Algorithm) bool { return strings.EqualFold(a.String(), *algName) })
	if i < 0 {
		return cli.Fail(fs, fmt.Errorf("unknown algorithm %q", *algName))
	}

	tr, err := loadTrace(*file, *dataset, *seed, video.Duration())
	if err != nil {
		return cli.Fail(fs, err)
	}

	cfg := mpcdash.DefaultConfig()
	if *metricsAddr != "" {
		ctx, stopDebug := context.WithCancel(ctx)
		defer stopDebug()
		reg := obs.NewRegistry()
		obs.PublishExpvar("mpcdash", reg)
		dbg, err := obs.ServeDebug(ctx, *metricsAddr, reg)
		if err != nil {
			return cli.Fail(fs, err)
		}
		fmt.Fprintf(stdout, "metrics at http://%s/metrics, profiles at http://%s/debug/pprof/\n", dbg, dbg)
		cfg.Obs = obs.NewRecorder(reg, nil)
	}

	res, err := mpcdash.Run(video, tr, algs[i], cfg)
	if err != nil {
		return cli.Fail(fs, err)
	}

	fmt.Fprintf(stdout, "algorithm     %s\n", res.Algorithm)
	fmt.Fprintf(stdout, "trace         %s (mean %.0f kbps, stddev %.0f kbps)\n", tr.Name(), tr.Mean(), tr.Stddev())
	fmt.Fprintf(stdout, "QoE           %.0f\n", res.QoE)
	fmt.Fprintf(stdout, "normalized    %.3f\n", res.NormQoE)
	fmt.Fprintf(stdout, "avg bitrate   %.0f kbps\n", res.Metrics.AvgBitrate)
	fmt.Fprintf(stdout, "avg change    %.0f kbps/chunk (%d switches)\n", res.Metrics.AvgBitrateChange, res.Metrics.Switches)
	fmt.Fprintf(stdout, "rebuffer      %.2f s in %d events\n", res.Metrics.RebufferTime, res.Metrics.RebufferEvents)
	fmt.Fprintf(stdout, "startup       %.2f s\n", res.Metrics.StartupDelay)
	fmt.Fprintf(stdout, "pred error    %.1f%%\n", res.PredError*100)

	series := func(f func(mpcdash.ChunkStat) float64) []float64 {
		out := make([]float64, len(res.Chunks))
		for i, c := range res.Chunks {
			out[i] = f(c)
		}
		return out
	}
	fmt.Fprintf(stdout, "bitrate       %s\n", viz.Sparkline(series(func(c mpcdash.ChunkStat) float64 { return c.Bitrate })))
	fmt.Fprintf(stdout, "buffer        %s\n", viz.Sparkline(series(func(c mpcdash.ChunkStat) float64 { return c.Buffer })))
	fmt.Fprintf(stdout, "throughput    %s\n", viz.Sparkline(series(func(c mpcdash.ChunkStat) float64 { return c.Throughput })))

	if *verbose {
		fmt.Fprintf(stdout, "\n%5s %9s %8s %9s %9s %9s\n", "chunk", "bitrate", "dl(s)", "thpt", "buf(s)", "rebuf(s)")
		for _, c := range res.Chunks {
			fmt.Fprintf(stdout, "%5d %9.0f %8.2f %9.0f %9.2f %9.2f\n",
				c.Index, c.Bitrate, c.DownloadTime, c.Throughput, c.Buffer, c.Rebuffer)
		}
	}
	if *jsonOut != "" {
		if err := cli.WriteFile(*jsonOut, res.WriteJSON); err != nil {
			return cli.Fail(fs, err)
		}
		fmt.Fprintf(stdout, "session JSON written to %s\n", *jsonOut)
	}
	if *csvOut != "" {
		if err := cli.WriteFile(*csvOut, res.WriteCSV); err != nil {
			return cli.Fail(fs, err)
		}
		fmt.Fprintf(stdout, "per-chunk CSV written to %s\n", *csvOut)
	}
	if *traceOut != "" {
		if err := cli.WriteFile(*traceOut, res.WriteTrace); err != nil {
			return cli.Fail(fs, err)
		}
		fmt.Fprintf(stdout, "trace written to %s — open in chrome://tracing or https://ui.perfetto.dev\n", *traceOut)
	}
	return 0
}

// loadTrace reads the trace file or generates one.
func loadTrace(file, dataset string, seed int64, videoDur float64) (*mpcdash.Trace, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return mpcdash.ReadTrace(f, file)
	}
	kind, err := trace.ParseKind(dataset)
	if err != nil {
		return nil, err
	}
	return mpcdash.GenerateDataset(mpcdash.Dataset(kind), 1, videoDur+120, seed)[0], nil
}
