package fastmpc

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"mpcdash/internal/core"
	"mpcdash/internal/model"
)

// The offline half of FastMPC (Sec 5.1, the "CPLEX farm") is the dominant
// startup cost of table-driven runs: a 100×L×100 enumeration re-solved from
// scratch by every process, and by every population inside one process.
// The cache layer makes the table content-addressed: an in-process registry
// builds each distinct (manifest, weights, quality, player config, bin
// spec) key exactly once and shares the compressed table across all
// sessions and populations, and an optional on-disk cache persists the
// built table so subsequent runs skip the enumeration entirely. Tables are
// pure functions of their key, so a cache hit is byte-identical to a fresh
// build and cold/warm runs produce identical decisions.

// CacheStats counts registry activity since construction (or Reset).
type CacheStats struct {
	Builds     uint64 // tables enumerated from scratch
	MemoryHits uint64 // lookups served by an already-resident table
	DiskHits   uint64 // tables loaded from the on-disk cache
	DiskErrors uint64 // unreadable, corrupt or mismatched cache files (rebuilt)
}

// Registry deduplicates FastMPC table construction by content key. The
// zero value is not usable; create instances with NewRegistry. Shared is
// the process-wide instance the controller factory consults.
type Registry struct {
	mu      sync.Mutex
	dir     string // on-disk cache directory; "" disables persistence
	entries map[uint64]*regEntry

	builds, memHits, diskHits, diskErrors atomic.Uint64
}

// regEntry is one table slot: the once gate makes concurrent requests for
// the same key block on a single build.
type regEntry struct {
	once  sync.Once
	done  atomic.Bool
	table *CompressedTable
	err   error
}

// NewRegistry returns an empty registry with no disk cache directory.
func NewRegistry() *Registry {
	return &Registry{entries: map[uint64]*regEntry{}}
}

// Shared is the process-wide registry: every NewController factory resolves
// its table through it, so populations and repeated factories sharing a
// configuration build the table once per process.
var Shared = NewRegistry()

// SetDir sets the on-disk cache directory; "" disables persistence.
// Already-resident tables are unaffected.
func (r *Registry) SetDir(dir string) {
	r.mu.Lock()
	r.dir = dir
	r.mu.Unlock()
}

// Dir returns the current on-disk cache directory.
func (r *Registry) Dir() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dir
}

// Stats returns a snapshot of the registry's activity counters.
func (r *Registry) Stats() CacheStats {
	return CacheStats{
		Builds:     r.builds.Load(),
		MemoryHits: r.memHits.Load(),
		DiskHits:   r.diskHits.Load(),
		DiskErrors: r.diskErrors.Load(),
	}
}

// Reset drops every resident table and zeroes the counters, keeping the
// disk directory: the next request for a key falls through to the disk
// cache (or a rebuild). Intended for tests and cold/warm benchmarks.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.entries = map[uint64]*regEntry{}
	r.mu.Unlock()
	r.builds.Store(0)
	r.memHits.Store(0)
	r.diskHits.Store(0)
	r.diskErrors.Store(0)
}

// Table returns the compressed decision table for (opt, spec), building it
// at most once per content key: resident tables are returned immediately,
// then the disk cache is consulted, and only a full miss pays the
// enumeration (whose result is persisted when a directory is set).
//
// Quality functions without a stable identity (model.QualityID returns "")
// are never shared — two closures of the same family are indistinguishable
// by function value — so those requests build privately on every call.
func (r *Registry) Table(opt *core.Optimizer, spec BinSpec) (*CompressedTable, error) {
	qualityID := model.QualityID(opt.Quality)
	if qualityID == "" {
		full, err := Build(opt, spec)
		if err != nil {
			return nil, err
		}
		r.builds.Add(1)
		return Compress(full), nil
	}
	key := TableKey(opt, qualityID, spec)
	r.mu.Lock()
	e := r.entries[key]
	if e == nil {
		e = &regEntry{}
		r.entries[key] = e
	}
	dir := r.dir
	r.mu.Unlock()

	if e.done.Load() {
		r.memHits.Add(1)
		return e.table, e.err
	}
	e.once.Do(func() {
		defer e.done.Store(true)
		if dir != "" {
			if table, ok := r.loadDisk(dir, key, opt.Manifest.Levels(), spec); ok {
				e.table = table
				r.diskHits.Add(1)
				return
			}
		}
		full, err := Build(opt, spec)
		if err != nil {
			e.err = err
			return
		}
		r.builds.Add(1)
		e.table = Compress(full)
		if dir != "" {
			r.storeDisk(dir, key, e.table)
		}
	})
	return e.table, e.err
}

// On-disk cache file layout: a 16-byte keyed header (magic, format version,
// the content key) followed by the run-length table in the
// CompressedTable.Serialize format, so a disk hit decodes straight into the
// table the registry serves. The key in the header is the file's claimed
// identity; a mismatch with the file name or the requested key means a
// corrupt or renamed file and falls back to a rebuild. Version 1 files
// carried a flat table; they fail the version check and are rebuilt.
const (
	cacheFileMagic   = 0x4D504346 // "MPCF"
	cacheFileVersion = 2
	cacheFileHeader  = 16
)

// cachePath names the cache file for a key inside dir.
func cachePath(dir string, key uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x.fastmpc", key))
}

// decodeCacheFile validates and decodes one cache-file blob against the
// identity it must carry: the content key, the ladder size, and the exact
// BinSpec of the request. It is a pure function over the bytes — the
// fuzz-hardened half of loadDisk — and any error means "treat as corrupt".
func decodeCacheFile(data []byte, key uint64, levels int, spec BinSpec) (*CompressedTable, error) {
	if len(data) < cacheFileHeader {
		return nil, fmt.Errorf("fastmpc: cache file truncated (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != cacheFileMagic {
		return nil, fmt.Errorf("fastmpc: cache file magic %#x, want %#x", m, uint32(cacheFileMagic))
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != cacheFileVersion {
		return nil, fmt.Errorf("fastmpc: cache file version %d, want %d", v, cacheFileVersion)
	}
	if k := binary.LittleEndian.Uint64(data[8:]); k != key {
		return nil, fmt.Errorf("fastmpc: cache file claims key %016x, want %016x", k, key)
	}
	table, err := DeserializeCompressed(data[cacheFileHeader:])
	if err != nil {
		return nil, err
	}
	if table.Levels != levels || !specIdentical(table.Spec, spec) {
		return nil, fmt.Errorf("fastmpc: cached table geometry disagrees with request")
	}
	return table, nil
}

// loadDisk reads and validates one cached table. Any failure — missing
// file, wrong magic or version, key mismatch, undecodable table, or a
// table whose geometry disagrees with the request — is a miss; corrupt
// files additionally count as DiskErrors.
func (r *Registry) loadDisk(dir string, key uint64, levels int, spec BinSpec) (*CompressedTable, bool) {
	data, err := os.ReadFile(cachePath(dir, key))
	if err != nil {
		return nil, false
	}
	table, err := decodeCacheFile(data, key, levels, spec)
	if err != nil {
		r.diskErrors.Add(1)
		return nil, false
	}
	return table, true
}

// storeDisk persists a freshly built table, best-effort: the cache is an
// accelerator, so write failures only count toward DiskErrors. The write
// goes through a unique temp file renamed into place, so concurrent
// processes never observe a torn file.
func (r *Registry) storeDisk(dir string, key uint64, t *CompressedTable) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		r.diskErrors.Add(1)
		return
	}
	blob := t.Serialize()
	buf := make([]byte, cacheFileHeader, cacheFileHeader+len(blob))
	binary.LittleEndian.PutUint32(buf[0:], cacheFileMagic)
	binary.LittleEndian.PutUint32(buf[4:], cacheFileVersion)
	binary.LittleEndian.PutUint64(buf[8:], key)
	buf = append(buf, blob...)

	path := cachePath(dir, key)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		r.diskErrors.Add(1)
		return
	}
	_, werr := tmp.Write(buf)
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(tmp.Name(), path) != nil {
		os.Remove(tmp.Name())
		r.diskErrors.Add(1)
	}
}

// specIdentical reports bit-exact equality of two bin specs: a cached
// table must reproduce the requested binning down to the last float bit,
// or edge states would bin differently than a fresh build.
func specIdentical(a, b BinSpec) bool {
	return a.BufferBins == b.BufferBins && a.RateBins == b.RateBins &&
		math.Float64bits(a.BufferMax) == math.Float64bits(b.BufferMax) &&
		math.Float64bits(a.RateMin) == math.Float64bits(b.RateMin) &&
		math.Float64bits(a.RateMax) == math.Float64bits(b.RateMax)
}

// SetTableCacheDir points the shared registry's on-disk cache at dir
// ("" disables persistence). Typically wired to a -table-cache flag.
func SetTableCacheDir(dir string) { Shared.SetDir(dir) }

// TableCacheStats snapshots the shared registry's counters.
func TableCacheStats() CacheStats { return Shared.Stats() }

// ResetSharedTables drops the shared registry's resident tables and
// counters (the disk directory is kept). Intended for cold/warm cache
// tests and benchmarks.
func ResetSharedTables() { Shared.Reset() }
