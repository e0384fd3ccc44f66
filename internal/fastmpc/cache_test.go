package fastmpc

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
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

// testSpec uses scalars that are not exactly representable in float32, so
// any remaining narrowing in a serialization path shifts bin edges and
// fails the exactness tests.
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

// --- versioned serialization -----------------------------------------

// TestSerializeRoundTripBitExact: the header stores the BinSpec scalars as
// float64, so a round trip reproduces the builder's binning bit for bit
// (a float32 header would shift bin edges for non-representable scalars).
func TestSerializeRoundTripBitExact(t *testing.T) {
	opt := testOptimizer(t)
	table, err := Build(opt, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	c := Compress(table)
	cback, err := DeserializeCompressed(c.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if !specIdentical(cback.Spec, c.Spec) {
		t.Fatalf("round-tripped compressed spec %+v is not bit-identical to %+v", cback.Spec, c.Spec)
	}
	if !bytes.Equal(cback.Serialize(), c.Serialize()) {
		t.Fatal("double round trip is not byte-identical")
	}
}

// TestDeserializeOverflowSafe: a crafted header whose dimension product
// overflows int must be rejected, not wrapped into a plausible small
// entry count that matches an attacker-chosen payload length.
func TestDeserializeOverflowSafe(t *testing.T) {
	// Dims 2^30 × 16 × 2^30 with one run: the naive int product wraps.
	crafted := make([]byte, rleHeaderLen+5)
	binary.LittleEndian.PutUint32(crafted[0:], rleMagic)
	binary.LittleEndian.PutUint32(crafted[4:], rleVersion)
	binary.LittleEndian.PutUint32(crafted[8:], 1<<30)
	binary.LittleEndian.PutUint32(crafted[12:], 1<<30)
	binary.LittleEndian.PutUint32(crafted[16:], 16)
	binary.LittleEndian.PutUint32(crafted[44:], 1)
	if _, err := DeserializeCompressed(crafted); err == nil {
		t.Error("overflowing compressed header accepted")
	}
	// Unknown future version must be rejected, not misparsed.
	binary.LittleEndian.PutUint32(crafted[4:], rleVersion+1)
	if _, err := DeserializeCompressed(crafted); err == nil {
		t.Error("unknown version accepted")
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

// TestRegistryDiskRoundTrip is the cold/warm contract: a second registry
// pointed at the same directory loads the persisted table instead of
// building, and the loaded table is byte-identical to the fresh one.
func TestRegistryDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cold := NewRegistry()
	cold.SetDir(dir)
	a, err := cold.Table(testOptimizer(t), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Builds != 1 || st.DiskHits != 0 {
		t.Fatalf("cold stats = %+v, want 1 build", st)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.fastmpc"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache dir has %d files (%v), want 1", len(files), err)
	}

	warm := NewRegistry()
	warm.SetDir(dir)
	b, err := warm.Table(testOptimizer(t), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Builds != 0 || st.DiskHits != 1 {
		t.Fatalf("warm stats = %+v, want 0 builds and 1 disk hit", st)
	}
	if !bytes.Equal(a.Serialize(), b.Serialize()) {
		t.Fatal("disk-loaded table is not byte-identical to the fresh build")
	}

	// A corrupted cache file is a miss that falls back to a rebuild.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	again := NewRegistry()
	again.SetDir(dir)
	c, err := again.Table(testOptimizer(t), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if st := again.Stats(); st.Builds != 1 {
		t.Fatalf("corrupt-cache stats = %+v, want a rebuild", st)
	}
	if !bytes.Equal(a.Serialize(), c.Serialize()) {
		t.Fatal("rebuild after corruption differs from the original build")
	}

	// A version 1 file (a flat "MPCT" table under the same key) is an
	// outdated format: one disk error, a rebuild, and a version 2 file left
	// behind that the next registry loads.
	flat, err := Build(testOptimizer(t), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], cacheFileV1(binary.LittleEndian.Uint64(data[8:]), flat), 0o644); err != nil {
		t.Fatal(err)
	}
	old := NewRegistry()
	old.SetDir(dir)
	d, err := old.Table(testOptimizer(t), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if st := old.Stats(); st.DiskErrors != 1 || st.Builds != 1 || st.DiskHits != 0 {
		t.Fatalf("v1-file stats = %+v, want 1 disk error and 1 rebuild", st)
	}
	if !bytes.Equal(a.Serialize(), d.Serialize()) {
		t.Fatal("rebuild over a v1 file differs from the original build")
	}
	data, err = os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != cacheFileVersion {
		t.Fatalf("rebuilt cache file has version %d, want %d", v, cacheFileVersion)
	}
	upgraded := NewRegistry()
	upgraded.SetDir(dir)
	if _, err := upgraded.Table(testOptimizer(t), testSpec); err != nil {
		t.Fatal(err)
	}
	if st := upgraded.Stats(); st.DiskHits != 1 || st.Builds != 0 {
		t.Fatalf("after upgrade stats = %+v, want 1 disk hit", st)
	}
}

// cacheFileV1 writes the version 1 cache file layout: the keyed "MPCF"
// header over a flat "MPCT" table (44-byte header with float64 scalars,
// then one byte per entry).
func cacheFileV1(key uint64, t *Table) []byte {
	buf := make([]byte, 60, 60+len(t.Entries))
	binary.LittleEndian.PutUint32(buf[0:], cacheFileMagic)
	binary.LittleEndian.PutUint32(buf[4:], 1)
	binary.LittleEndian.PutUint64(buf[8:], key)
	binary.LittleEndian.PutUint32(buf[16:], 0x4D504354) // "MPCT"
	binary.LittleEndian.PutUint32(buf[20:], 2)
	binary.LittleEndian.PutUint32(buf[24:], uint32(t.Spec.BufferBins))
	binary.LittleEndian.PutUint32(buf[28:], uint32(t.Spec.RateBins))
	binary.LittleEndian.PutUint32(buf[32:], uint32(t.Levels))
	binary.LittleEndian.PutUint64(buf[36:], math.Float64bits(t.Spec.BufferMax))
	binary.LittleEndian.PutUint64(buf[44:], math.Float64bits(t.Spec.RateMin))
	binary.LittleEndian.PutUint64(buf[52:], math.Float64bits(t.Spec.RateMax))
	return append(buf, t.Entries...)
}

// TestCachedTableMatchesOptimizerEverywhere is the satellite property
// test: after a full serialize → disk → deserialize round trip, Lookup at
// every bin center must equal a direct exact-MPC solve, and the cached
// table must be byte-identical to the freshly built one.
func TestCachedTableMatchesOptimizerEverywhere(t *testing.T) {
	dir := t.TempDir()
	opt := testOptimizer(t)
	spec := BinSpec{BufferBins: 10, BufferMax: 30.1, RateBins: 10, RateMin: 10.3, RateMax: 5827.7}

	cold := NewRegistry()
	cold.SetDir(dir)
	fresh, err := cold.Table(opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewRegistry()
	warm.SetDir(dir)
	cached, err := warm.Table(opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats().DiskHits != 1 {
		t.Fatal("second registry did not hit the disk cache")
	}
	if !bytes.Equal(fresh.Serialize(), cached.Serialize()) {
		t.Fatal("cached table is not byte-identical to the fresh build")
	}

	var scratch core.Scratch
	forecast := make([]float64, 1)
	for bBin := 0; bBin < spec.BufferBins; bBin++ {
		for prev := 0; prev < opt.Manifest.Levels(); prev++ {
			for rBin := 0; rBin < spec.RateBins; rBin++ {
				buffer := spec.BufferValue(bBin)
				forecast[0] = spec.RateValue(rBin)
				want, _, _ := opt.PlanScratch(&scratch, 0, buffer, prev, forecast, false)
				if got := cached.Lookup(buffer, prev, forecast[0]); got != want {
					t.Fatalf("cached Lookup(%.2f,%d,%.2f) = %d, optimizer says %d",
						buffer, prev, forecast[0], got, want)
				}
			}
		}
	}
}
