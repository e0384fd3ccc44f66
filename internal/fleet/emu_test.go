package fleet

import (
	"context"
	"sync"
	"testing"

	"mpcdash/internal/abr"
	"mpcdash/internal/emu"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/model"
	"mpcdash/internal/obs"
	"mpcdash/internal/trace"
)

// Smoke test for the emulated backend: a handful of sessions over real
// loopback HTTP with heavy time compression must complete and aggregate.
func TestFleetEmuBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns loopback servers")
	}
	sc := &Scenario{
		Name:      "emu-smoke",
		Seed:      3,
		Video:     VideoSpec{Chunks: 6, ChunkSec: 4},
		TracePool: TracePoolSpec{PerKind: 4, DurationSec: 120},
		Populations: []Population{{
			Name:      "emu",
			Algorithm: "RB",
			Sessions:  6,
			TraceMix:  map[string]float64{"fcc": 1},
			Watch:     Watch{Dist: "fixed", Chunks: 4},
		}},
	}
	f, err := New(sc, Options{Backend: BackendEmu, EmuTimeScale: 50})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Populations[0]
	if p.Completed != 6 || p.Errors != 0 {
		t.Fatalf("emu backend: completed=%d errors=%d, want 6/0", p.Completed, p.Errors)
	}
	if p.Chunks != 6*4 {
		t.Errorf("chunks = %d, want %d (fixed 4-chunk watch)", p.Chunks, 6*4)
	}
	if p.BitrateKbps.Mean <= 0 {
		t.Errorf("no bitrate aggregated: %+v", p)
	}
}

// TestFleetEmuBackendSharedManifest: emulated sessions play the fleet's
// full manifest, like the sim backend. A FastMPC population with varied
// watch lengths builds its table once and binds every controller to the
// full-length manifest, and on a starved link the abandon policy stops
// requesting chunks at the abandon point instead of trimming the log
// after the fact.
func TestFleetEmuBackendSharedManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns loopback servers")
	}
	const chunks, sessions = 8, 6
	sc := &Scenario{
		Name:      "emu-shared-manifest",
		Seed:      5,
		Video:     VideoSpec{Chunks: chunks, ChunkSec: 4},
		TracePool: TracePoolSpec{PerKind: 2, DurationSec: 120},
		Populations: []Population{{
			Name:      "fast",
			Algorithm: "FastMPC",
			Sessions:  sessions,
			TraceMix:  map[string]float64{"fcc": 1},
			Watch:     Watch{Dist: "uniform", MinChunks: 4, MaxChunks: chunks},
			// 350 kbps chunks over 200 kbps stall 3 s each after the
			// first, so every session crosses 4 s on its third chunk.
			AbandonRebufferSec: 4,
		}},
	}
	reg := obs.NewRegistry()
	f, err := New(sc, Options{Backend: BackendEmu, EmuTimeScale: 50, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	starved, err := trace.FromRates("starved", 600, []float64{200})
	if err != nil {
		t.Fatal(err)
	}
	f.pool["fcc"] = []*trace.Trace{starved}

	watches := map[int]bool{}
	for i := 0; i < sessions; i++ {
		watches[f.pops[0].watchFor(i, chunks)] = true
	}
	if len(watches) < 2 {
		t.Fatalf("watch lengths %v: the seed must draw at least two", watches)
	}
	var mu sync.Mutex
	var bound []int
	factory := f.pops[0].alg.Factory
	f.pops[0].alg.Factory = func(m *model.Manifest) abr.Controller {
		mu.Lock()
		bound = append(bound, m.ChunkCount)
		mu.Unlock()
		return factory(m)
	}

	fastmpc.ResetSharedTables() // a cold start, so the build count is this run's
	t.Cleanup(fastmpc.ResetSharedTables)
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if builds := fastmpc.TableCacheStats().Builds; builds != 1 {
		t.Errorf("FastMPC tables built = %d over %d watch lengths, want 1", builds, len(watches))
	}
	if len(bound) != sessions {
		t.Errorf("%d controllers bound, want %d", len(bound), sessions)
	}
	for _, n := range bound {
		if n != chunks {
			t.Errorf("controller bound to a %d-chunk manifest, want the full %d", n, chunks)
		}
	}

	p := rep.Populations[0]
	if p.Completed != sessions || p.Errors != 0 {
		t.Fatalf("completed=%d errors=%d, want %d/0", p.Completed, p.Errors, sessions)
	}
	if p.Abandoned == 0 {
		t.Fatalf("no session abandoned on a starved link: %+v", p)
	}
	requests := reg.Counter(emu.MetricServerRequests, "", "handler", "chunk").Value()
	if requests != uint64(p.Chunks) {
		t.Errorf("server saw %d chunk requests for %d recorded chunks: sessions fetched past the abandon point", requests, p.Chunks)
	}
}
