package fastmpc

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"testing"

	"mpcdash/internal/fuzzcorpus"
)

// The binary table formats ("MPCR" run-length tables and the "MPCF" cache
// files that wrap them) are the package's only parsers of untrusted bytes:
// a cache directory is writable by anything on the machine. The fuzz
// targets below hold the decoders to the contract the rest of the package
// relies on: every input either fails with an error or yields a table whose
// every Lookup is in range — no panics, no out-of-bounds levels, no
// decode-accepting-garbage.

// fuzzSpec is the small deterministic geometry every fuzz seed is built
// around: 4×3×3 = 36 entries keeps seed blobs readable in the corpus files.
var fuzzSpec = BinSpec{BufferBins: 4, BufferMax: 12, RateBins: 3, RateMin: 10, RateMax: 100}

const fuzzLevels = 3

// fuzzTable builds a small valid table by hand — no optimizer enumeration,
// so the fuzz setup stays microseconds.
func fuzzTable() *Table {
	t := &Table{
		Spec:    fuzzSpec,
		Levels:  fuzzLevels,
		Entries: make([]uint8, fuzzSpec.BufferBins*fuzzLevels*fuzzSpec.RateBins),
	}
	for i := range t.Entries {
		t.Entries[i] = uint8(i % fuzzLevels)
	}
	return t
}

// probeLookups exercises Lookup across the hostile corners of the state
// space — NaN, ±Inf, negatives, out-of-range prev — and fails the fuzz run
// if any decision escapes [0, levels).
func probeLookups(t *testing.T, levels int, lookup func(buffer float64, prev int, rate float64) int) {
	t.Helper()
	buffers := []float64{-1, 0, 5, 1e308, math.Inf(1), math.Inf(-1), math.NaN()}
	prevs := []int{-5, -1, 0, levels - 1, levels, levels + 7}
	rates := []float64{-10, 0, 55, 1e308, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, b := range buffers {
		for _, p := range prevs {
			for _, r := range rates {
				if lvl := lookup(b, p, r); lvl < 0 || lvl >= levels {
					t.Fatalf("Lookup(%v, %d, %v) = %d, outside [0, %d)", b, p, r, lvl, levels)
				}
			}
		}
	}
}

// deserializeCompressedSeeds is the committed seed corpus for
// FuzzDeserializeCompressed.
func deserializeCompressedSeeds() [][]byte {
	c := Compress(fuzzTable())
	valid := c.Serialize()
	nonzeroStart := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(nonzeroStart[rleHeaderLen:], 7) // first run must start at 0
	badLevel := append([]byte(nil), valid...)
	badLevel[rleHeaderLen+4] = fuzzLevels // run value beyond Levels
	return [][]byte{
		valid,
		badLevel,
		valid[:len(valid)-3], // torn run entry
		valid[:rleHeaderLen],
		{},
		nonzeroStart,
	}
}

// FuzzDeserializeCompressed holds DeserializeCompressed ("MPCR" run-length
// tables) to its contract: error, or a structurally valid table that
// re-serializes bit-exactly and never looks up an out-of-range level. It
// also cross-checks the compressed Lookup against the decompressed flat
// table when the logical length is small enough to expand.
func FuzzDeserializeCompressed(f *testing.F) {
	for _, s := range deserializeCompressedSeeds() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := DeserializeCompressed(data)
		if err != nil {
			return
		}
		if ct.Runs() < 1 || ct.Starts[0] != 0 {
			t.Fatalf("accepted encoding with bad run structure: %d runs, first start %v", ct.Runs(), ct.Starts)
		}
		for r := 1; r < len(ct.Starts); r++ {
			if ct.Starts[r] <= ct.Starts[r-1] {
				t.Fatalf("accepted non-ascending run starts at %d: %v", r, ct.Starts)
			}
		}
		if int(ct.Starts[len(ct.Starts)-1]) >= ct.Length {
			t.Fatalf("accepted run starting at %d beyond length %d", ct.Starts[len(ct.Starts)-1], ct.Length)
		}
		re := ct.Serialize()
		ct2, err := DeserializeCompressed(re)
		if err != nil {
			t.Fatalf("re-deserialize failed: %v", err)
		}
		if !bytes.Equal(re, ct2.Serialize()) {
			t.Fatal("serialize/deserialize round trip not bit-exact")
		}
		probeLookups(t, ct.Levels, ct.Lookup)
		// Length is header-implied and can be huge with a tiny payload;
		// only expand (Length bytes) when it is fuzz-affordable.
		if ct.Length <= 1<<16 {
			flat := ct.Decompress()
			for _, buffer := range []float64{0, 5, math.NaN()} {
				for _, rate := range []float64{0, 55, math.Inf(1)} {
					if a, b := ct.Lookup(buffer, 1, rate), flat.Lookup(buffer, 1, rate); a != b {
						t.Fatalf("compressed Lookup(%v, 1, %v) = %d, decompressed = %d", buffer, rate, a, b)
					}
				}
			}
		}
	})
}

// fuzzCacheKey is the content key every FuzzCacheFile seed claims; the
// decoder must reject any blob claiming a different identity.
const fuzzCacheKey uint64 = 0xDEADBEEFCAFEF00D

// cacheBlob wraps a serialized run-length table in the 16-byte "MPCF"
// keyed header, mirroring storeDisk's layout.
func cacheBlob(key uint64, table []byte) []byte {
	buf := make([]byte, cacheFileHeader, cacheFileHeader+len(table))
	binary.LittleEndian.PutUint32(buf[0:], cacheFileMagic)
	binary.LittleEndian.PutUint32(buf[4:], cacheFileVersion)
	binary.LittleEndian.PutUint64(buf[8:], key)
	return append(buf, table...)
}

// cacheFileSeeds is the committed seed corpus for FuzzCacheFile.
func cacheFileSeeds() [][]byte {
	blob := Compress(fuzzTable()).Serialize()
	badVersion := cacheBlob(fuzzCacheKey, blob)
	binary.LittleEndian.PutUint32(badVersion[4:], 1) // the retired flat-table format
	return [][]byte{
		cacheBlob(fuzzCacheKey, blob),
		cacheBlob(fuzzCacheKey+1, blob), // key mismatch
		cacheBlob(fuzzCacheKey, blob[:len(blob)-1]),
		cacheBlob(fuzzCacheKey, nil),
		{},
		badVersion,
	}
}

// FuzzCacheFile holds decodeCacheFile (the pure half of the disk-cache
// loader) to its contract: anything that decodes carries exactly the
// requested identity — key, ladder size, and bit-exact BinSpec.
func FuzzCacheFile(f *testing.F) {
	for _, s := range cacheFileSeeds() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		table, err := decodeCacheFile(data, fuzzCacheKey, fuzzLevels, fuzzSpec)
		if err != nil {
			return
		}
		if table.Levels != fuzzLevels || !specIdentical(table.Spec, fuzzSpec) {
			t.Fatalf("accepted cache file with foreign geometry: levels %d, spec %+v", table.Levels, table.Spec)
		}
		if len(data) < cacheFileHeader || binary.LittleEndian.Uint64(data[8:]) != fuzzCacheKey {
			t.Fatal("accepted cache file not claiming the requested key")
		}
		probeLookups(t, table.Levels, table.Lookup)
		if table.Runs() < 1 {
			t.Fatal("decoded table has zero runs")
		}
	})
}

// TestFuzzCorpusCommitted keeps the committed seed corpora under
// testdata/fuzz in sync with the f.Add seeds above: the files are read as
// seeds by every `go test` run, so drift would silently shrink coverage.
func TestFuzzCorpusCommitted(t *testing.T) {
	for _, target := range []struct {
		name  string
		seeds [][]byte
	}{
		{"FuzzDeserializeCompressed", deserializeCompressedSeeds()},
		{"FuzzCacheFile", cacheFileSeeds()},
	} {
		problems, err := fuzzcorpus.Sync(filepath.Join("testdata", "fuzz", target.name), target.seeds)
		if err != nil {
			t.Fatalf("%s: %v", target.name, err)
		}
		for _, p := range problems {
			t.Errorf("%s: %s", target.name, p)
		}
	}
}
