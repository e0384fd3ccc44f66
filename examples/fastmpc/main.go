// FastMPC table walkthrough: build the offline decision table of Sec 5,
// inspect its structure and compression, and compare its lookups against
// the exact MPC optimizer it approximates.
//
//	go run ./examples/fastmpc
package main

import (
	"fmt"
	"log"
	"time"

	"mpcdash/internal/core"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/model"
)

func main() {
	manifest := model.EnvivioManifest()
	opt, err := core.NewOptimizer(manifest, model.Balanced, model.QIdentity, 30, 5)
	if err != nil {
		log.Fatal(err)
	}

	// Offline enumeration: 100 buffer bins × 5 previous bitrates × 100
	// throughput bins, each solved exactly (the "CPLEX farm" of Fig 5).
	spec := fastmpc.DefaultBins(30, manifest.Ladder.Max())
	start := time.Now()
	table, err := fastmpc.Build(opt, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enumerated %d states in %s\n", len(table.Entries), time.Since(start).Round(time.Millisecond))

	compressed := fastmpc.Compress(table)
	fmt.Printf("full table:  %6.1f kB (paper's 2 B/entry accounting: %.1f kB)\n",
		float64(table.FullSizeBytes(1))/1000, float64(table.FullSizeBytes(2))/1000)
	fmt.Printf("RLE table:   %6.1f kB in %d runs (ratio %.2f)\n\n",
		float64(compressed.SizeBytes())/1000, compressed.Runs(),
		float64(compressed.SizeBytes())/float64(table.FullSizeBytes(2)))

	// A slice of the decision surface: what does FastMPC pick at a given
	// previous bitrate as buffer and predicted throughput vary?
	fmt.Println("decision surface at prev = 1000 kbps (rows: buffer s, cols: predicted kbps):")
	rates := []float64{300, 600, 1200, 2400, 4800}
	fmt.Printf("%8s", "")
	for _, r := range rates {
		fmt.Printf(" %6.0f", r)
	}
	fmt.Println()
	for _, buf := range []float64{2, 6, 10, 18, 28} {
		fmt.Printf("%7.0fs", buf)
		for _, r := range rates {
			lvl := compressed.Lookup(buf, 2, r)
			fmt.Printf(" %6.0f", manifest.Ladder[lvl])
		}
		fmt.Println()
	}

	// The compressed lookup must agree with the exact optimizer on the
	// bins' representative states.
	mismatches := 0
	total := 0
	for bBin := 0; bBin < spec.BufferBins; bBin += 7 {
		for rBin := 0; rBin < spec.RateBins; rBin += 7 {
			buffer, rate := spec.BufferValue(bBin), spec.RateValue(rBin)
			want, _, _ := opt.Plan(0, buffer, 2, []float64{rate}, false)
			if compressed.Lookup(buffer, 2, rate) != want {
				mismatches++
			}
			total++
		}
	}
	fmt.Printf("\nspot check vs exact optimizer: %d/%d lookups agree\n", total-mismatches, total)
}
