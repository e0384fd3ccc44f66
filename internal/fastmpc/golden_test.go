package fastmpc

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"mpcdash/internal/core"
	"mpcdash/internal/model"
)

// TestDefaultTableGolden pins every entry of the default table (Envivio,
// Balanced, B_max 30, N=5, 100×5×100 bins): the SHA-256 of Entries, its
// run count and its run-length size. The solver may enumerate, bound and
// parallelize however it likes, but the decisions it stores must not move.
// The digests are amd64's, like the other float goldens.
func TestDefaultTableGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	const (
		wantSHA  = "bce3a20d774bc3b09e9bbc592ef69f9d56ab441fe9459e28f9bce2d0029c56ba"
		wantRuns = 5596
		wantRLE  = 28028
	)
	m := model.EnvivioManifest()
	opt, err := core.NewOptimizer(m, model.Balanced, model.QIdentity, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	table, err := Build(opt, DefaultBins(30, m.Ladder.Max()))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(table.Entries)
	c := Compress(table)
	if got := hex.EncodeToString(sum[:]); got != wantSHA || c.Runs() != wantRuns || c.SizeBytes() != wantRLE {
		t.Errorf("default table: sha256 %s, %d runs, %d RLE bytes; want %s, %d, %d",
			got, c.Runs(), c.SizeBytes(), wantSHA, wantRuns, wantRLE)
	}
}
