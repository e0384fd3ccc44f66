package fastmpc

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The enumerated table is highly structured — neighbouring states share the
// same optimal decision — so a run-length encoding compresses it well
// (Sec 5.2). Runs are stored as (start offset, value) pairs and queried by
// binary search over the starts, exactly the paper's online lookup.

// CompressedTable is the run-length encoded decision table.
type CompressedTable struct {
	Spec   BinSpec
	Levels int
	Length int      // number of logical entries
	Starts []uint32 // first flat index of each run, ascending
	Values []uint8  // decision for each run
}

// Compress run-length encodes a table.
func Compress(t *Table) *CompressedTable {
	c := &CompressedTable{Spec: t.Spec, Levels: t.Levels, Length: len(t.Entries)}
	for i, v := range t.Entries {
		if i == 0 || v != t.Entries[i-1] {
			c.Starts = append(c.Starts, uint32(i))
			c.Values = append(c.Values, v)
		}
	}
	return c
}

// Decompress expands back to the flat table; the inverse of Compress.
func (c *CompressedTable) Decompress() *Table {
	t := &Table{Spec: c.Spec, Levels: c.Levels, Entries: make([]uint8, c.Length)}
	for r := range c.Starts {
		end := c.Length
		if r+1 < len(c.Starts) {
			end = int(c.Starts[r+1])
		}
		for i := int(c.Starts[r]); i < end; i++ {
			t.Entries[i] = c.Values[r]
		}
	}
	return t
}

// Runs returns the number of runs in the encoding.
func (c *CompressedTable) Runs() int { return len(c.Starts) }

// at returns the value at flat index i via binary search over run starts.
// The search is hand-rolled rather than sort.Search, which would pay an
// indirect closure call per probe on the decide path; the per-decision
// lookup is the one operation the paper's online phase pays for.
//
//mpc:noalloc
func (c *CompressedTable) at(i int) uint8 {
	// Largest r with Starts[r] <= i is the run containing i; Starts[0] == 0
	// guarantees one exists.
	lo, hi := 0, len(c.Starts) // invariant: Starts[lo] <= i < Starts[hi]
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if int(c.Starts[mid]) <= i {
			lo = mid
		} else {
			hi = mid
		}
	}
	return c.Values[lo]
}

// Lookup returns the stored optimal level for the given player state,
// without decompressing.
//
//mpc:noalloc
func (c *CompressedTable) Lookup(buffer float64, prev int, predictedKbps float64) int {
	if prev < 0 {
		prev = 0
	}
	if prev >= c.Levels {
		prev = c.Levels - 1
	}
	i := (c.Spec.BufferBin(buffer)*c.Levels+prev)*c.Spec.RateBins + c.Spec.RateBin(predictedKbps)
	return int(c.at(i))
}

// Serialized format: a 48-byte header — the "MPCR" magic word, a format
// version, the three dimensions as uint32, the three BinSpec scalars as
// float64 (so the round-tripped binning is bit-exact) and the run count —
// followed by one 5-byte (uint32 start, uint8 value) entry per run. This is
// the only table encoding: the on-disk cache stores it too.
const (
	rleMagic     = 0x4D504352 // "MPCR", little-endian on the wire
	rleVersion   = 2
	rleHeaderLen = 48
)

// SizeBytes returns the serialized size: 5 bytes per run (uint32 start +
// uint8 value) plus the 48-byte header.
func (c *CompressedTable) SizeBytes() int { return rleHeaderLen + 5*len(c.Starts) }

// Serialize writes the compressed table in the versioned format.
func (c *CompressedTable) Serialize() []byte {
	buf := make([]byte, rleHeaderLen, c.SizeBytes())
	binary.LittleEndian.PutUint32(buf[0:], rleMagic)
	binary.LittleEndian.PutUint32(buf[4:], rleVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(c.Spec.BufferBins))
	binary.LittleEndian.PutUint32(buf[12:], uint32(c.Spec.RateBins))
	binary.LittleEndian.PutUint32(buf[16:], uint32(c.Levels))
	binary.LittleEndian.PutUint64(buf[20:], math.Float64bits(c.Spec.BufferMax))
	binary.LittleEndian.PutUint64(buf[28:], math.Float64bits(c.Spec.RateMin))
	binary.LittleEndian.PutUint64(buf[36:], math.Float64bits(c.Spec.RateMax))
	binary.LittleEndian.PutUint32(buf[44:], uint32(len(c.Starts)))
	var entry [5]byte
	for r := range c.Starts {
		binary.LittleEndian.PutUint32(entry[0:], c.Starts[r])
		entry[4] = c.Values[r]
		buf = append(buf, entry[:]...)
	}
	return buf
}

// maxTableDim bounds each table dimension read from an untrusted header so
// the entry-count product cannot overflow (2^20 per axis keeps the uint64
// product below 2^60) and an absurd header fails fast.
const maxTableDim = 1 << 20

// entryCount validates header dimensions and returns the implied entry
// count bufferBins·levels·rateBins. The multiplication is overflow-safe: a
// crafted header with huge dimensions is rejected before the product is
// trusted, instead of wrapping around int and matching a short payload.
func entryCount(bufferBins, levels, rateBins int) (int, error) {
	if bufferBins <= 0 || levels <= 0 || rateBins <= 0 ||
		bufferBins > maxTableDim || levels > maxTableDim || rateBins > maxTableDim {
		return 0, fmt.Errorf("fastmpc: table header has invalid dimensions %d×%d×%d", bufferBins, levels, rateBins)
	}
	n := uint64(bufferBins) * uint64(levels) * uint64(rateBins)
	if n > math.MaxInt32 {
		return 0, fmt.Errorf("fastmpc: table header implies %d entries, beyond the %d cap", n, math.MaxInt32)
	}
	return int(n), nil
}

// DeserializeCompressed reconstructs a compressed table from Serialize
// output. It is the package's one decoder of untrusted table bytes: every
// input either fails with an error or yields a table whose every Lookup is
// a level below Levels.
func DeserializeCompressed(data []byte) (*CompressedTable, error) {
	if len(data) < rleHeaderLen {
		return nil, fmt.Errorf("fastmpc: compressed blob too short (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != rleMagic {
		return nil, fmt.Errorf("fastmpc: compressed blob magic %#x, want %#x", m, uint32(rleMagic))
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != rleVersion {
		return nil, fmt.Errorf("fastmpc: compressed blob version %d, want %d", v, rleVersion)
	}
	c := &CompressedTable{}
	c.Spec.BufferBins = int(binary.LittleEndian.Uint32(data[8:]))
	c.Spec.RateBins = int(binary.LittleEndian.Uint32(data[12:]))
	c.Levels = int(binary.LittleEndian.Uint32(data[16:]))
	c.Spec.BufferMax = math.Float64frombits(binary.LittleEndian.Uint64(data[20:]))
	c.Spec.RateMin = math.Float64frombits(binary.LittleEndian.Uint64(data[28:]))
	c.Spec.RateMax = math.Float64frombits(binary.LittleEndian.Uint64(data[36:]))
	length, err := entryCount(c.Spec.BufferBins, c.Levels, c.Spec.RateBins)
	if err != nil {
		return nil, err
	}
	c.Length = length
	runs := int(binary.LittleEndian.Uint32(data[44:]))
	if runs <= 0 || runs > c.Length || len(data)-rleHeaderLen != 5*runs {
		return nil, fmt.Errorf("fastmpc: compressed blob has %d payload bytes, header implies %d runs", len(data)-rleHeaderLen, runs)
	}
	c.Starts = make([]uint32, runs)
	c.Values = make([]uint8, runs)
	for r := 0; r < runs; r++ {
		off := rleHeaderLen + 5*r
		c.Starts[r] = binary.LittleEndian.Uint32(data[off:])
		c.Values[r] = data[off+4]
	}
	if c.Starts[0] != 0 {
		return nil, fmt.Errorf("fastmpc: compressed blob first run starts at %d, want 0", c.Starts[0])
	}
	for r := 1; r < runs; r++ {
		if c.Starts[r] <= c.Starts[r-1] {
			return nil, fmt.Errorf("fastmpc: compressed blob run starts not ascending at run %d", r)
		}
	}
	if int(c.Starts[runs-1]) >= c.Length {
		return nil, fmt.Errorf("fastmpc: compressed blob last run starts beyond table length")
	}
	// A run value naming a level the header does not have would make
	// Lookup return an out-of-range level.
	for r := 0; r < runs; r++ {
		if int(c.Values[r]) >= c.Levels {
			return nil, fmt.Errorf("fastmpc: compressed blob run %d is level %d, header has %d levels", r, c.Values[r], c.Levels)
		}
	}
	return c, nil
}
