//go:build amd64

// The pinned output below comes from float arithmetic recorded on amd64;
// other architectures may fuse multiply-adds and pick differently at a
// bin boundary.

package fastmpc_test

import (
	"fmt"

	"mpcdash/internal/core"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/model"
)

// A slice of the default FastMPC table's decision surface (Sec 5): the
// bitrate it picks after a 1000 kbps chunk as the buffer and the
// predicted throughput vary. Table 1 (cmd/experiments -fig table1) prices
// the table in bytes, and TestTableMatchesOptimizer checks it against the
// exact optimizer.
func ExampleCompressedTable_Lookup() {
	manifest := model.EnvivioManifest()
	opt, err := core.NewOptimizer(manifest, model.Balanced, model.QIdentity, 30, 5)
	if err != nil {
		panic(err)
	}
	table, err := fastmpc.Build(opt, fastmpc.DefaultBins(30, manifest.Ladder.Max()))
	if err != nil {
		panic(err)
	}
	compressed := fastmpc.Compress(table)

	rates := []float64{300, 600, 1200, 2400, 4800}
	fmt.Printf("%8s", "buf\\kbps")
	for _, r := range rates {
		fmt.Printf(" %6.0f", r)
	}
	fmt.Println()
	for _, buf := range []float64{2, 6, 10, 18, 28} {
		fmt.Printf("%7.0fs", buf)
		for _, r := range rates {
			fmt.Printf(" %6.0f", manifest.Ladder[compressed.Lookup(buf, 2, r)])
		}
		fmt.Println()
	}
	// Output:
	// buf\kbps    300    600   1200   2400   4800
	//       2s    350    350    600   1000   2000
	//       6s    350    600   1000   1000   3000
	//      10s    350   1000   1000   3000   3000
	//      18s    600   1000   2000   3000   3000
	//      28s    600   1000   2000   3000   3000
}
