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
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mpcdash/internal/experiments"
)

func main() {
	keys := make([]string, len(experiments.All))
	for i, e := range experiments.All {
		keys[i] = e.Key
	}
	var (
		traces = flag.Int("traces", 100, "traces per dataset")
		seed   = flag.Int64("seed", 42, "base workload seed")
		fig    = flag.String("fig", "", "experiment to run ("+strings.Join(keys, ", ")+"); empty runs all")
	)
	flag.Parse()

	selected := experiments.All
	if *fig != "" {
		selected = nil
		for _, e := range experiments.All {
			if e.Key == *fig {
				selected = append(selected, e)
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (have %s)\n", *fig, strings.Join(keys, ", "))
			os.Exit(2)
		}
	}

	cfg := experiments.Config{TraceCount: *traces, Seed: *seed, Out: os.Stdout}
	for _, e := range selected {
		start := time.Now()
		fmt.Printf("=== %s (traces=%d seed=%d) ===\n", e.Title, *traces, *seed)
		if err := e.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.Title, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "--- %s done in %s ---\n", e.Title, time.Since(start).Round(time.Millisecond))
		fmt.Println()
	}
}
