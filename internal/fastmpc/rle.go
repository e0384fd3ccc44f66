package fastmpc

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

// SizeBytes returns the table's footprint as Table 1 prices it: 5 bytes
// per run (a uint32 start and a uint8 value) plus a 48-byte header (magic,
// version, the three dimensions, the three BinSpec scalars as float64 and
// the run count). Like Table.FullSizeBytes it is arithmetic; no table is
// ever written out.
func (c *CompressedTable) SizeBytes() int { return 48 + 5*len(c.Starts) }
