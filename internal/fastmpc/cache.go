package fastmpc

import (
	"sync"
	"sync/atomic"

	"mpcdash/internal/core"
	"mpcdash/internal/model"
)

// The offline half of FastMPC (Sec 5.1, the "CPLEX farm") is a 100×L×100
// enumeration that every population inside one process would otherwise
// repeat. The registry makes the table content-addressed: it builds each
// distinct (manifest, weights, quality, player config, bin spec) key
// exactly once per process and shares the compressed table across all
// sessions and populations. Tables are pure functions of their key, so a
// shared table is byte-identical to a fresh build.

// CacheStats counts registry activity since construction (or Reset).
type CacheStats struct {
	Builds     uint64 // tables enumerated from scratch
	MemoryHits uint64 // lookups served by an already-resident table
}

// Registry deduplicates FastMPC table construction by content key. The
// zero value is not usable; create instances with NewRegistry. Shared is
// the process-wide instance the controller factory consults.
type Registry struct {
	mu      sync.Mutex
	entries map[uint64]*regEntry

	builds, memHits atomic.Uint64
}

// regEntry is one table slot: the once gate makes concurrent requests for
// the same key block on a single build.
type regEntry struct {
	once  sync.Once
	done  atomic.Bool
	table *CompressedTable
	err   error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[uint64]*regEntry{}}
}

// Shared is the process-wide registry: every NewController factory resolves
// its table through it, so populations and repeated factories sharing a
// configuration build the table once per process.
var Shared = NewRegistry()

// Stats returns a snapshot of the registry's activity counters.
func (r *Registry) Stats() CacheStats {
	return CacheStats{Builds: r.builds.Load(), MemoryHits: r.memHits.Load()}
}

// Reset drops every resident table and zeroes the counters, so the next
// request for a key rebuilds. Intended for tests and cold-start benchmarks.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.entries = map[uint64]*regEntry{}
	r.mu.Unlock()
	r.builds.Store(0)
	r.memHits.Store(0)
}

// Table returns the compressed decision table for (opt, spec), building it
// at most once per content key: resident tables are returned immediately,
// and only the first request for a key pays the enumeration.
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
	r.mu.Unlock()

	if e.done.Load() {
		r.memHits.Add(1)
		return e.table, e.err
	}
	e.once.Do(func() {
		defer e.done.Store(true)
		full, err := Build(opt, spec)
		if err != nil {
			e.err = err
			return
		}
		r.builds.Add(1)
		e.table = Compress(full)
	})
	return e.table, e.err
}

// TableCacheStats snapshots the shared registry's counters.
func TableCacheStats() CacheStats { return Shared.Stats() }

// ResetSharedTables drops the shared registry's resident tables and
// counters. Intended for cold-start tests and benchmarks.
func ResetSharedTables() { Shared.Reset() }
