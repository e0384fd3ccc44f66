package fastmpc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mpcdash/internal/abr"
	"mpcdash/internal/core"
	"mpcdash/internal/model"
)

func smallTable(t *testing.T) (*core.Optimizer, *Table) {
	t.Helper()
	m := model.EnvivioManifest()
	opt, err := core.NewOptimizer(m, model.Balanced, model.QIdentity, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	spec := BinSpec{BufferBins: 20, BufferMax: 30, RateBins: 20, RateMin: 10, RateMax: 6000}
	table, err := Build(opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	return opt, table
}

func TestBinSpecValidate(t *testing.T) {
	good := DefaultBins(30, 3000)
	if err := good.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	bad := []BinSpec{
		{BufferBins: 1, BufferMax: 30, RateBins: 10, RateMin: 10, RateMax: 100},
		{BufferBins: 10, BufferMax: 0, RateBins: 10, RateMin: 10, RateMax: 100},
		{BufferBins: 10, BufferMax: 30, RateBins: 1, RateMin: 10, RateMax: 100},
		{BufferBins: 10, BufferMax: 30, RateBins: 10, RateMin: 0, RateMax: 100},
		{BufferBins: 10, BufferMax: 30, RateBins: 10, RateMin: 100, RateMax: 100},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should be invalid", i)
		}
	}
}

func TestBinQuantization(t *testing.T) {
	s := BinSpec{BufferBins: 10, BufferMax: 30, RateBins: 10, RateMin: 0.001, RateMax: 1000}
	if s.BufferBin(-5) != 0 || s.BufferBin(0) != 0 {
		t.Error("buffer underflow should clamp to bin 0")
	}
	if s.BufferBin(30) != 9 || s.BufferBin(100) != 9 {
		t.Error("buffer overflow should clamp to last bin")
	}
	if s.BufferBin(15) != 5 {
		t.Errorf("BufferBin(15) = %d, want 5", s.BufferBin(15))
	}
	// Round trip: a bin's representative value quantizes to the same bin.
	for b := 0; b < 10; b++ {
		if got := s.BufferBin(s.BufferValue(b)); got != b {
			t.Errorf("buffer bin %d round-trips to %d", b, got)
		}
		if got := s.RateBin(s.RateValue(b)); got != b {
			t.Errorf("rate bin %d round-trips to %d", b, got)
		}
	}
}

// TestTableMatchesOptimizer: looking up a bin's representative state must
// return exactly what the optimizer decides for it, in the flat and the
// compressed table.
func TestTableMatchesOptimizer(t *testing.T) {
	opt, table := smallTable(t)
	checkTableMatchesOptimizer(t, opt, table, Compress(table), 3)
}

// checkTableMatchesOptimizer compares every step-th buffer and rate bin of
// the flat table and of its compressed form with the optimizer's decision at
// the bin's representative state.
func checkTableMatchesOptimizer(t *testing.T, opt *core.Optimizer, table *Table, compressed *CompressedTable, step int) {
	t.Helper()
	spec := table.Spec
	for bBin := 0; bBin < spec.BufferBins; bBin += step {
		for prev := 0; prev < table.Levels; prev++ {
			for rBin := 0; rBin < spec.RateBins; rBin += step {
				buffer := spec.BufferValue(bBin)
				rate := spec.RateValue(rBin)
				want, _, _ := opt.Plan(0, buffer, prev, []float64{rate}, false)
				if got := table.Lookup(buffer, prev, rate); got != want {
					t.Fatalf("%+v: Lookup(%.2f,%d,%.2f) = %d, optimizer says %d", spec, buffer, prev, rate, got, want)
				}
				if got := compressed.Lookup(buffer, prev, rate); got != want {
					t.Fatalf("%+v: compressed Lookup(%.2f,%d,%.2f) = %d, optimizer says %d", spec, buffer, prev, rate, got, want)
				}
			}
		}
	}
}

func TestLookupPrevClamping(t *testing.T) {
	_, table := smallTable(t)
	if got, want := table.Lookup(10, -1, 1000), table.Lookup(10, 0, 1000); got != want {
		t.Errorf("prev=-1 should clamp to 0: %d vs %d", got, want)
	}
	if got, want := table.Lookup(10, 99, 1000), table.Lookup(10, 4, 1000); got != want {
		t.Errorf("prev=99 should clamp to top: %d vs %d", got, want)
	}
}

// TestTableAnchors pins the table's corners: starved states choose the
// bottom of the ladder, rich states the top. (Full monotonicity in rate is
// not a theorem — the optimal timing of up-switches can invert locally —
// but the corners are unambiguous.)
func TestTableAnchors(t *testing.T) {
	_, table := smallTable(t)
	for prev := 0; prev < table.Levels; prev++ {
		// Lowest rate bin, nearly empty buffer: any higher level only adds
		// rebuffer.
		if got := table.Lookup(0.5, prev, table.Spec.RateMin); got != 0 {
			t.Errorf("starved state prev=%d chose %d, want 0", prev, got)
		}
		// Highest rate bin, full buffer: bandwidth covers the top level
		// with room to spare.
		if got := table.Lookup(table.Spec.BufferMax, prev, table.Spec.RateMax); got != table.Levels-1 {
			t.Errorf("rich state prev=%d chose %d, want %d", prev, got, table.Levels-1)
		}
	}
}

func TestCompressRoundTrip(t *testing.T) {
	_, table := smallTable(t)
	c := Compress(table)
	if c.Runs() >= len(table.Entries) {
		t.Errorf("RLE did not compress: %d runs for %d entries", c.Runs(), len(table.Entries))
	}
	back := c.Decompress()
	if len(back.Entries) != len(table.Entries) {
		t.Fatalf("decompressed length %d, want %d", len(back.Entries), len(table.Entries))
	}
	for i := range table.Entries {
		if back.Entries[i] != table.Entries[i] {
			t.Fatalf("entry %d: %d != %d", i, back.Entries[i], table.Entries[i])
		}
	}
}

// TestCompressedLookupEquivalence: binary-search lookup over runs equals
// flat-table indexing for every state, the Sec 5.2 correctness claim.
func TestCompressedLookupEquivalence(t *testing.T) {
	_, table := smallTable(t)
	c := Compress(table)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		buffer := rng.Float64()*40 - 5
		prev := rng.Intn(7) - 1
		rate := rng.Float64() * 8000
		if got, want := c.Lookup(buffer, prev, rate), table.Lookup(buffer, prev, rate); got != want {
			t.Fatalf("compressed lookup (%v,%d,%v) = %d, flat = %d", buffer, prev, rate, got, want)
		}
	}
}

// handTable is a small valid table made by hand, no enumeration: 4×3×3
// entries cycling through its three levels, so every run is one entry.
func handTable() *Table {
	spec := BinSpec{BufferBins: 4, BufferMax: 12, RateBins: 3, RateMin: 10, RateMax: 100}
	t := &Table{Spec: spec, Levels: 3, Entries: make([]uint8, spec.BufferBins*3*spec.RateBins)}
	for i := range t.Entries {
		t.Entries[i] = uint8(i % t.Levels)
	}
	return t
}

// TestLookupStaysInRange: /v1/decide hands Lookup untrusted state, so NaN,
// ±Inf, negative and out-of-range inputs must still pick a level in
// [0, Levels), and the compressed table must agree with the flat one.
func TestLookupStaysInRange(t *testing.T) {
	_, built := smallTable(t)
	for _, flat := range []*Table{handTable(), built} {
		c, levels := Compress(flat), flat.Levels
		buffers := []float64{-1, 0, 5, 1e308, math.Inf(1), math.Inf(-1), math.NaN()}
		prevs := []int{-5, -1, 0, levels - 1, levels, levels + 7}
		rates := []float64{-10, 0, 55, 1e308, math.Inf(1), math.Inf(-1), math.NaN()}
		for _, b := range buffers {
			for _, p := range prevs {
				for _, r := range rates {
					lvl := c.Lookup(b, p, r)
					if lvl < 0 || lvl >= levels {
						t.Fatalf("%d levels: Lookup(%v, %d, %v) = %d, out of range", levels, b, p, r, lvl)
					}
					if want := flat.Lookup(b, p, r); lvl != want {
						t.Fatalf("%d levels: compressed Lookup(%v, %d, %v) = %d, flat = %d", levels, b, p, r, lvl, want)
					}
				}
			}
		}
	}
}

// TestLookupZeroAllocs is the runtime witness of //mpc:noalloc on both
// table lookups and the bin mappers, index and run search beneath them:
// the per-decision online phase costs no heap allocation.
func TestLookupZeroAllocs(t *testing.T) {
	_, table := smallTable(t)
	c := Compress(table)
	levels := 0
	for name, lookup := range map[string]func(float64, int, float64) int{
		"(*Table).Lookup":           table.Lookup,
		"(*CompressedTable).Lookup": c.Lookup,
	} {
		if allocs := testing.AllocsPerRun(200, func() { levels += lookup(14.2, 2, 1740) }); allocs != 0 {
			t.Errorf("%s allocates %.2f objects/op, want 0", name, allocs)
		}
	}
	if levels == 0 {
		t.Fatal("lookups never ran")
	}
}

// TestRLEProperty: encode→decode is the identity on arbitrary byte tables.
func TestRLEProperty(t *testing.T) {
	f := func(entries []uint8) bool {
		if len(entries) == 0 {
			return true
		}
		tbl := &Table{
			Spec:    BinSpec{BufferBins: len(entries), BufferMax: 30, RateBins: 1, RateMin: 1, RateMax: 2},
			Levels:  1,
			Entries: entries,
		}
		c := Compress(tbl)
		back := c.Decompress()
		if len(back.Entries) != len(entries) {
			return false
		}
		for i := range entries {
			if back.Entries[i] != entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestControllerDecide(t *testing.T) {
	m := model.EnvivioManifest()
	spec := BinSpec{BufferBins: 20, BufferMax: 30, RateBins: 20, RateMin: 10, RateMax: 6000}
	factory := NewController(model.Balanced, model.QIdentity, 30, 5, &spec, false, "")
	ctrl := factory(m)
	if ctrl.Name() != "FastMPC" {
		t.Errorf("Name = %q", ctrl.Name())
	}
	// Plentiful bandwidth and buffer → top level; starvation → bottom.
	high := ctrl.Decide(abr.State{Chunk: 10, Buffer: 29, Prev: 4, Forecast: []float64{5500}})
	if high.Level != 4 {
		t.Errorf("rich state level = %d, want 4", high.Level)
	}
	low := ctrl.Decide(abr.State{Chunk: 10, Buffer: 0.5, Prev: 0, Forecast: []float64{50}})
	if low.Level != 0 {
		t.Errorf("poor state level = %d, want 0", low.Level)
	}

	// The factory caches the table per manifest.
	if factory(m).(*Controller).Table != ctrl.(*Controller).Table {
		t.Error("table not shared across sessions for the same manifest")
	}

	robust := NewController(model.Balanced, model.QIdentity, 30, 5, &spec, true, "")(m)
	if robust.Name() != "RobustFastMPC" {
		t.Errorf("Name = %q", robust.Name())
	}
	s := abr.State{Chunk: 10, Buffer: 8, Prev: 2, Forecast: []float64{5000}, Lower: []float64{100}}
	if r, g := robust.Decide(s).Level, ctrl.Decide(s).Level; r > g {
		t.Errorf("robust level %d above regular %d", r, g)
	}
}

func TestBuildRejectsBadSpec(t *testing.T) {
	m := model.EnvivioManifest()
	opt, err := core.NewOptimizer(m, model.Balanced, model.QIdentity, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(opt, BinSpec{}); err == nil {
		t.Error("empty spec should fail")
	}
}
