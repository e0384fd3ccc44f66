package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// fleetGoldenSHA256 is the SHA-256 of the golden scenario's report JSON.
const fleetGoldenSHA256 = "8c5264b720c4d7f244d2599e55292fe80c2f02d1dfa6f0f8e1c096c900417f29"

// TestFleetSimReportGolden pins the whole sim-backend report of a small
// mixed fleet bit for bit: every RobustMPC chunk runs the exact horizon
// search, every FastMPC chunk reads a table that search built, and BB
// exercises the simulator alone, so any change to the arithmetic of the
// planner, the table builder or the simulator shows up as a new hash.
// Go may fuse x*y+z into one rounding on architectures with FMA
// instructions (arm64, ppc64le, s390x), so the pinned hash is amd64's.
func TestFleetSimReportGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden report is recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	mix := map[string]float64{"fcc": 1, "hsdpa": 1}
	sc := &Scenario{
		Name:      "golden",
		Seed:      1,
		TracePool: TracePoolSpec{PerKind: 16},
		Populations: []Population{
			{Name: "robustmpc", Algorithm: "RobustMPC", Sessions: 100, TraceMix: mix,
				Watch: Watch{Dist: "uniform", MinChunks: 13, MaxChunks: 65}},
			{Name: "fastmpc", Algorithm: "FastMPC", Sessions: 100, TraceMix: mix},
			{Name: "bb", Algorithm: "BB", Sessions: 100, TraceMix: mix},
		},
	}
	f, err := New(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != fleetGoldenSHA256 {
		t.Errorf("report SHA-256 = %s, want %s\nreport:\n%s", got, fleetGoldenSHA256, b)
	}
}
