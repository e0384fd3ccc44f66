// Command experiments regenerates the paper's evaluation tables and
// figures (Sec 7). Each figure prints its plotted series as aligned text
// rows; EXPERIMENTS.md records a reference run.
//
// Usage:
//
//	experiments [-traces N] [-seed S] [-fig KEY]
//
// KEY is one entry of the experiment catalog (7, 8, 9, 10, 11a, 11b, 11c,
// 11d, 12a, 12b, table1, levels, predictors, mdp, quality, overhead);
// without -fig every entry runs in that order. Timings (each entry's run
// time, Table 1's build times and the overhead section's per-decision
// costs) go to stderr, so stdout depends only on -traces and -seed.
// SIGINT/SIGTERM stops the run once the entry in progress is done (exit
// status 130); a second one ends it at once.
package main

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"mpcdash/internal/cli"
	"mpcdash/internal/experiments"
)

func main() { cli.MainStoppable(run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	keys := make([]string, len(experiments.All))
	for i, e := range experiments.All {
		keys[i] = e.Key
	}
	fs := cli.NewFlagSet("experiments", stderr)
	var (
		traces = fs.Int("traces", 100, "traces per dataset")
		seed   = fs.Int64("seed", 42, "base workload seed")
		fig    = fs.String("fig", "", "experiment to run ("+strings.Join(keys, ", ")+"); empty runs all")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ParseStatus(err)
	}

	selected := experiments.All
	if *fig != "" {
		i := slices.Index(keys, *fig)
		if i < 0 {
			fmt.Fprintf(stderr, "experiments: unknown experiment %q (have %s)\n", *fig, strings.Join(keys, ", "))
			return 2
		}
		selected = selected[i : i+1]
	}

	cfg := experiments.Config{TraceCount: *traces, Seed: *seed, Out: stdout}
	for _, e := range selected {
		if ctx.Err() != nil {
			fmt.Fprintf(stderr, "experiments: %v received, stopping before %s\n", context.Cause(ctx), e.Title)
			return 130
		}
		start := time.Now()
		fmt.Fprintf(stdout, "=== %s (traces=%d seed=%d) ===\n", e.Title, *traces, *seed)
		if err := e.Run(cfg, stderr); err != nil {
			return cli.Fail(fs, fmt.Errorf("%s: %w", e.Title, err))
		}
		fmt.Fprintf(stderr, "--- %s done in %s ---\n", e.Title, time.Since(start).Round(time.Millisecond))
		fmt.Fprintln(stdout)
	}
	return 0
}
