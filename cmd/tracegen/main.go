// Command tracegen synthesizes throughput-trace datasets in the text format
// (one "duration kbps" sample per line) and prints their statistics, or
// inspects an existing trace file.
//
// Usage:
//
//	tracegen -dataset hsdpa -count 10 -duration 380 -out traces/   # generate
//	tracegen -inspect traces/hsdpa-3.txt                           # inspect
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mpcdash/internal/cli"
	"mpcdash/internal/stats"
	"mpcdash/internal/trace"
)

func main() { cli.Main(run) }

func run(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("tracegen", stderr)
	var (
		dataset  = fs.String("dataset", "fcc", "fcc, hsdpa or synthetic")
		count    = fs.Int("count", 10, "number of traces")
		duration = fs.Float64("duration", 380, "trace duration in seconds")
		seed     = fs.Int64("seed", 42, "base seed")
		out      = fs.String("out", "", "output directory (default: print stats only)")
		inspect  = fs.String("inspect", "", "inspect an existing trace file instead of generating")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ParseStatus(err)
	}

	if *inspect != "" {
		if err := inspectFile(stdout, *inspect); err != nil {
			return cli.Fail(fs, err)
		}
		return 0
	}

	kind, err := trace.ParseKind(*dataset)
	if err != nil {
		return cli.Fail(fs, err)
	}

	traces := trace.Dataset(kind, *count, *duration, *seed)
	var means, stds []float64
	for _, tr := range traces {
		means = append(means, tr.Mean())
		stds = append(stds, tr.Stddev())
		if *out != "" {
			if err := writeTrace(*out, tr); err != nil {
				return cli.Fail(fs, err)
			}
		}
	}
	fmt.Fprintf(stdout, "%s dataset: %d traces × %.0fs\n", kind, len(traces), *duration)
	fmt.Fprintf(stdout, "  mean throughput: %s\n", stats.Summarize(means))
	fmt.Fprintf(stdout, "  stddev:          %s\n", stats.Summarize(stds))
	if *out != "" {
		fmt.Fprintf(stdout, "  written to %s/\n", *out)
	}
	return 0
}

func writeTrace(dir string, tr *trace.Trace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return cli.WriteFile(filepath.Join(dir, tr.Name+".txt"), func(w io.Writer) error { return trace.Write(w, tr) })
}

func inspectFile(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Read(f, filepath.Base(path))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace %s\n", tr.Name)
	fmt.Fprintf(w, "  samples:   %d\n", len(tr.Samples))
	fmt.Fprintf(w, "  duration:  %.1f s\n", tr.Duration())
	fmt.Fprintf(w, "  mean:      %.0f kbps\n", tr.Mean())
	fmt.Fprintf(w, "  stddev:    %.0f kbps\n", tr.Stddev())
	fmt.Fprintf(w, "  min/max:   %.0f / %.0f kbps\n", tr.MinRate(), tr.MaxRate())
	return nil
}
