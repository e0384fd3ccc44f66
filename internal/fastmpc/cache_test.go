package fastmpc

import (
	"math"
	"testing"

	"mpcdash/internal/core"
	"mpcdash/internal/model"
)

func testOptimizer(t *testing.T) *core.Optimizer {
	t.Helper()
	opt, err := core.NewOptimizer(model.EnvivioManifest(), model.Balanced, model.QIdentity, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

// testSpec is a small spec, cheap to build, whose scalars are not round
// numbers.
var testSpec = BinSpec{BufferBins: 12, BufferMax: 30.1, RateBins: 12, RateMin: 10.3, RateMax: 5827.7}

// --- clampBin determinism (NaN / ±Inf) -------------------------------

func TestBinNaNAndInfDeterministic(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	s := testSpec
	if got := s.BufferBin(nan); got != 0 {
		t.Errorf("BufferBin(NaN) = %d, want 0", got)
	}
	if got := s.RateBin(nan); got != 0 {
		t.Errorf("RateBin(NaN) = %d, want 0", got)
	}
	if got := s.BufferBin(inf); got != s.BufferBins-1 {
		t.Errorf("BufferBin(+Inf) = %d, want %d", got, s.BufferBins-1)
	}
	if got := s.RateBin(inf); got != s.RateBins-1 {
		t.Errorf("RateBin(+Inf) = %d, want %d", got, s.RateBins-1)
	}
	if got := s.BufferBin(-inf); got != 0 {
		t.Errorf("BufferBin(-Inf) = %d, want 0", got)
	}
	if got := s.RateBin(-inf); got != 0 {
		t.Errorf("RateBin(-Inf) = %d, want 0", got)
	}

	opt, table := smallTable(t)
	_ = opt
	// A poisoned state (0/0 throughput sample, NaN buffer) must resolve to
	// the same decision as the deterministic clamp target, bin 0.
	if got, want := table.Lookup(nan, 2, nan), table.Lookup(0, 2, 0); got != want {
		t.Errorf("Lookup(NaN,2,NaN) = %d, want the bin-0 decision %d", got, want)
	}
	if got, want := table.Lookup(inf, 2, inf), table.Lookup(1e18, 2, 1e18); got != want {
		t.Errorf("Lookup(+Inf) = %d, want the top-bin decision %d", got, want)
	}
	c := Compress(table)
	if got, want := c.Lookup(nan, -1, nan), table.Lookup(nan, -1, nan); got != want {
		t.Errorf("compressed Lookup(NaN) = %d, flat = %d", got, want)
	}
}

// --- content-addressed key -------------------------------------------

func TestTableKeySensitivity(t *testing.T) {
	opt := testOptimizer(t)
	base := TableKey(opt, "identity", testSpec)
	if TableKey(opt, "identity", testSpec) != base {
		t.Error("key is not deterministic")
	}
	if TableKey(opt, "other", testSpec) == base {
		t.Error("key ignores the quality id")
	}
	sp := testSpec
	sp.RateBins++
	if TableKey(opt, "identity", sp) == base {
		t.Error("key ignores the bin spec")
	}
	opt2 := testOptimizer(t)
	opt2.Weights.Mu++
	if TableKey(opt2, "identity", testSpec) == base {
		t.Error("key ignores the QoE weights")
	}
	opt3 := testOptimizer(t)
	opt3.Horizon = 4
	if TableKey(opt3, "identity", testSpec) == base {
		t.Error("key ignores the horizon")
	}
	m, err := model.NewVBRManifest(model.EnvivioLadder(), 65, 4, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	opt4, err := core.NewOptimizer(m, model.Balanced, model.QIdentity, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	if TableKey(opt4, "identity", testSpec) == base {
		t.Error("key ignores the manifest's chunk sizes")
	}
}

// --- registry ---------------------------------------------------------

// TestRegistrySharesBuilds: two optimizers with equal content (distinct
// pointers) resolve to the same table instance, building once.
func TestRegistrySharesBuilds(t *testing.T) {
	reg := NewRegistry()
	a, err := reg.Table(testOptimizer(t), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Table(testOptimizer(t), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("equal-content optimizers did not share one table")
	}
	st := reg.Stats()
	if st.Builds != 1 || st.MemoryHits != 1 {
		t.Errorf("stats = %+v, want 1 build and 1 memory hit", st)
	}
}

// TestCachedTableMatchesOptimizerEverywhere: a table the registry hands out
// again from its memo agrees with the optimizer at every bin, flat and
// compressed. The spec's scalars are not round numbers (nor exact in
// float32), so its bin edges fall off any grid the ladder favours.
func TestCachedTableMatchesOptimizerEverywhere(t *testing.T) {
	reg := NewRegistry()
	opt := testOptimizer(t)
	spec := BinSpec{BufferBins: 10, BufferMax: 30.1, RateBins: 10, RateMin: 10.3, RateMax: 5827.7}
	fresh, err := reg.Table(opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := reg.Table(testOptimizer(t), spec)
	if err != nil {
		t.Fatal(err)
	}
	if cached != fresh || reg.Stats().MemoryHits != 1 {
		t.Fatalf("second lookup did not hit the registry: stats = %+v", reg.Stats())
	}
	checkTableMatchesOptimizer(t, opt, cached.Decompress(), cached, 1)
}

// TestRegistryUnknownQualityNotShared: parameterized quality closures are
// indistinguishable by function value, so they must never share tables.
func TestRegistryUnknownQualityNotShared(t *testing.T) {
	reg := NewRegistry()
	mk := func(q model.QualityFunc) *core.Optimizer {
		opt, err := core.NewOptimizer(model.EnvivioManifest(), model.Balanced, q, 30, 5)
		if err != nil {
			t.Fatal(err)
		}
		return opt
	}
	a, err := reg.Table(mk(model.QLog(100)), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Table(mk(model.QLog(100)), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("closure quality functions must not share a table instance")
	}
}
