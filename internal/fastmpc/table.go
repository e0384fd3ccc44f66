// Package fastmpc implements the table-enumeration approximation of MPC
// (Sec 5): the state space (buffer level × previous bitrate × predicted
// throughput) is binned, every bin is solved offline with the exact
// optimizer, and the online controller reduces to a table lookup. The
// decision table is stored run-length encoded and queried by binary search
// (Sec 5.2), which is what keeps the player footprint at tens of kilobytes.
package fastmpc

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"mpcdash/internal/core"
)

// BinSpec defines the discretization of the FastMPC state space.
type BinSpec struct {
	BufferBins int     // bins over [0, BufferMax] (paper default: 100)
	BufferMax  float64 // seconds
	RateBins   int     // bins over [RateMin, RateMax] (paper default: 100)
	RateMin    float64 // kbps
	RateMax    float64 // kbps
}

// DefaultBins returns the paper's 100×100 binning for the given buffer cap
// and ladder maximum: throughput bins span [10, 2·maxKbps] so predictions
// above the top rung still resolve distinctly.
func DefaultBins(bufferMax, maxKbps float64) BinSpec {
	return BinSpec{
		BufferBins: 100,
		BufferMax:  bufferMax,
		RateBins:   100,
		RateMin:    10,
		RateMax:    2 * maxKbps,
	}
}

// Validate reports structural errors in the spec.
func (s BinSpec) Validate() error {
	if s.BufferBins < 2 || s.RateBins < 2 {
		return fmt.Errorf("fastmpc: need at least 2 bins per dimension, got %d×%d", s.BufferBins, s.RateBins)
	}
	if s.BufferMax <= 0 {
		return fmt.Errorf("fastmpc: BufferMax must be positive, got %v", s.BufferMax)
	}
	if s.RateMin <= 0 || s.RateMax <= s.RateMin {
		return fmt.Errorf("fastmpc: need 0 < RateMin < RateMax, got [%v, %v]", s.RateMin, s.RateMax)
	}
	return nil
}

// BufferBin quantizes a buffer level to its bin index (clamped).
//
//mpc:noalloc
func (s BinSpec) BufferBin(buffer float64) int {
	return clampBin(buffer/s.BufferMax, s.BufferBins)
}

// BufferValue returns the representative buffer level of a bin (its center).
func (s BinSpec) BufferValue(bin int) float64 {
	return (float64(bin) + 0.5) * s.BufferMax / float64(s.BufferBins)
}

// RateBin quantizes a throughput prediction to its bin index (clamped).
//
//mpc:noalloc
func (s BinSpec) RateBin(kbps float64) int {
	return clampBin((kbps-s.RateMin)/(s.RateMax-s.RateMin), s.RateBins)
}

// RateValue returns the representative throughput of a bin (its center).
func (s BinSpec) RateValue(bin int) float64 {
	return s.RateMin + (float64(bin)+0.5)*(s.RateMax-s.RateMin)/float64(s.RateBins)
}

// clampBin maps a fraction of the binned range to a bin index, clamping to
// [0, bins). The comparisons are ordered so that NaN and ±Inf never reach a
// float→int conversion — Go leaves the conversion of out-of-range values
// (including NaN) implementation-defined, which would make the chosen bin
// platform-dependent. A NaN input (a poisoned trace, a 0/0 throughput
// sample) deterministically lands in bin 0.
//
//mpc:noalloc
func clampBin(frac float64, bins int) int {
	v := frac * float64(bins)
	if !(v > 0) { // NaN, -Inf, negatives and zero
		return 0
	}
	if v >= float64(bins) { // +Inf and overflow clamp to the top bin
		return bins - 1
	}
	return int(v)
}

// Table is the enumerated decision table. Entries are ladder-level indices
// laid out bufferBin-major, then previous level, then rate bin.
type Table struct {
	Spec    BinSpec
	Levels  int // ladder size
	Entries []uint8
}

// index computes the flat offset of a (bufferBin, prev, rateBin) cell.
//
//mpc:noalloc
func (t *Table) index(bBin, prev, rBin int) int {
	return (bBin*t.Levels+prev)*t.Spec.RateBins + rBin
}

// Lookup returns the stored optimal level for the given player state.
// prev < 0 (no previous chunk) is treated as the lowest level.
//
//mpc:noalloc
func (t *Table) Lookup(buffer float64, prev int, predictedKbps float64) int {
	if prev < 0 {
		prev = 0
	}
	if prev >= t.Levels {
		prev = t.Levels - 1
	}
	return int(t.Entries[t.index(t.Spec.BufferBin(buffer), prev, t.Spec.RateBin(predictedKbps))])
}

// Build enumerates the state space and solves every bin with the exact
// optimizer (the offline "CPLEX farm" of Fig 5, parallelized across CPUs).
// The representative chunk is chunk 0 with the horizon fully inside the
// video, which for CBR manifests is exact for every steady-state chunk.
func Build(opt *core.Optimizer, spec BinSpec) (*Table, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	levels := opt.Manifest.Levels()
	if levels > math.MaxUint8+1 {
		return nil, fmt.Errorf("fastmpc: ladder has %d levels, table stores at most %d", levels, math.MaxUint8+1)
	}
	t := &Table{
		Spec:    spec,
		Levels:  levels,
		Entries: make([]uint8, spec.BufferBins*levels*spec.RateBins),
	}
	// Parallelize over rate bins: one FirstLevels call solves a bin's
	// whole (buffer, previous level) row with shared setup, and each
	// worker owns its own solver Scratch. Entries are buffer-major, so a
	// row is strided in the table: the solves write a private row, and
	// only its copy touches the cache lines other workers write.
	buffers := make([]float64, spec.BufferBins)
	for bBin := range buffers {
		buffers[bBin] = spec.BufferValue(bBin)
	}
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	rows := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch core.Scratch
			forecast := make([]float64, 1)
			row := make([]int, spec.BufferBins*levels)
			for rBin := range rows {
				forecast[0] = spec.RateValue(rBin)
				opt.FirstLevels(&scratch, 0, forecast, buffers, row)
				// Cell i = bBin*levels+prev sits at t.index(bBin, prev, rBin).
				for i, lvl := range row {
					t.Entries[i*spec.RateBins+rBin] = uint8(lvl)
				}
			}
		}()
	}
	for rBin := 0; rBin < spec.RateBins; rBin++ {
		rows <- rBin
	}
	close(rows)
	wg.Wait()
	return t, nil
}

// FullSizeBytes returns the size of the uncompressed table with the given
// bytes per entry. The paper's Table 1 counts 2 bytes per entry (the
// JavaScript literal encoding); a binary array needs 1.
func (t *Table) FullSizeBytes(bytesPerEntry int) int {
	return len(t.Entries) * bytesPerEntry
}
