package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"mpcdash/internal/abrsvc"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/model"
	"mpcdash/internal/trace"
)

// svcTestScenario is a compact svc-backend scenario: both decision rules
// the service implements, short video, watch churn on one population.
func svcTestScenario(sessions int) *Scenario {
	return &Scenario{
		Name:        "svc-test",
		Seed:        7,
		Video:       VideoSpec{Chunks: 12, ChunkSec: 4},
		TracePool:   TracePoolSpec{PerKind: 8, DurationSec: 200},
		MaxInFlight: sessions,
		Populations: []Population{
			{
				Name:      "fastmpc",
				Algorithm: "FastMPC",
				Sessions:  sessions,
				TraceMix:  map[string]float64{"fcc": 2, "hsdpa": 1},
				Watch:     Watch{Dist: "uniform", MinChunks: 4, MaxChunks: 12},
			},
			{
				Name:      "robustmpc",
				Algorithm: "RobustMPC",
				Sessions:  sessions / 2,
				TraceMix:  map[string]float64{"hsdpa": 1},
			},
		},
	}
}

// runSvcCapture runs sc on the svc backend and returns every session's
// decision sequence keyed by population/session index.
func runSvcCapture(t *testing.T, sc *Scenario) (*Report, map[string][]int) {
	t.Helper()
	var mu sync.Mutex
	seqs := make(map[string][]int)
	sessionHook = func(pop string, session int, res *model.SessionResult) {
		levels := make([]int, len(res.Chunks))
		for i, c := range res.Chunks {
			levels[i] = c.Level
		}
		mu.Lock()
		seqs[fmt.Sprintf("%s/%d", pop, session)] = levels
		mu.Unlock()
	}
	defer func() { sessionHook = nil }()

	f, err := New(sc, Options{Backend: BackendSvc})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep, seqs
}

// TestSvcBackendDeterministic is the svc backend's contract test: a
// same-seed run against a fresh service reproduces byte-identical
// per-session decision sequences, with every session completed and zero
// errors — the predictor state lives server-side, yet determinism holds
// because each session's decisions are a pure function of its trace.
func TestSvcBackendDeterministic(t *testing.T) {
	sc := svcTestScenario(24)
	rep1, run1 := runSvcCapture(t, sc)

	var total int64
	for _, p := range rep1.Populations {
		total += p.Completed
		if p.Errors != 0 {
			t.Errorf("population %s: %d session errors, want 0", p.Name, p.Errors)
		}
		if p.Completed != int64(p.Sessions) {
			t.Errorf("population %s: completed %d of %d sessions", p.Name, p.Completed, p.Sessions)
		}
	}
	if want := int64(24 + 12); total != want {
		t.Fatalf("completed %d sessions, want %d", total, want)
	}
	if len(run1) != int(total) {
		t.Fatalf("hook captured %d sessions, want %d", len(run1), total)
	}

	_, run2 := runSvcCapture(t, svcTestScenario(24))
	keys := make([]string, 0, len(run1))
	for k := range run1 {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if fmt.Sprint(run1[k]) != fmt.Sprint(run2[k]) {
			t.Errorf("session %s: run 1 decided %v, run 2 %v — svc backend not deterministic",
				k, run1[k], run2[k])
		}
	}

	// Watch churn must show up as truncated sessions (MaxChunks < video
	// length for some), proving truncation happens client-side while the
	// service still serves the full-video table.
	short := 0
	for k, levels := range run1 {
		if len(levels) < 12 {
			short++
		}
		if len(levels) == 0 {
			t.Errorf("session %s played no chunks", k)
		}
	}
	if short == 0 {
		t.Error("uniform 4..12 watch distribution produced no truncated sessions")
	}
}

// TestSvcBackendMatchesSim is the differential oracle between backends: a
// FastMPC or RobustFastMPC session on the svc backend plays the
// simulator's playback with the same table and predictor, only moved
// behind HTTP, so with watch churn and the abandon policy both backends
// must produce byte-identical reports (the backend name aside).
func TestSvcBackendMatchesSim(t *testing.T) {
	run := func(backend string) *Report {
		pop := func(name, alg string) Population {
			return Population{
				Name:               name,
				Algorithm:          alg,
				Sessions:           64,
				TraceMix:           map[string]float64{"fcc": 1, "hsdpa": 2},
				Watch:              Watch{Dist: "uniform", MinChunks: 4, MaxChunks: 16},
				AbandonRebufferSec: 2,
			}
		}
		sc := &Scenario{
			Name:        "oracle",
			Seed:        11,
			Video:       VideoSpec{Chunks: 16, ChunkSec: 4},
			TracePool:   TracePoolSpec{PerKind: 16, DurationSec: 200},
			MaxInFlight: 16,
			Populations: []Population{pop("fastmpc", "FastMPC"), pop("robust", "RobustFastMPC")},
		}
		f, err := New(sc, Options{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	sim, svc := run(BackendSim), run(BackendSvc)
	for _, p := range sim.Populations {
		t.Logf("sim %s: %d completed, %d abandoned, %d chunks", p.Name, p.Completed, p.Abandoned, p.Chunks)
		if p.Completed != int64(p.Sessions) || p.Abandoned == 0 || p.Abandoned == p.Completed {
			t.Fatalf("%s: scenario does not exercise churn and abandonment: %+v", p.Name, p)
		}
	}
	svc.Backend = sim.Backend
	a, err := sim.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("sim and svc reports differ:\n--- sim\n%s\n--- svc\n%s", a, b)
	}
}

// TestSvcSessionReclaim covers the 409 path of playSvcSession against an
// external abrd (Options.SvcURL): a stub in front of a real service
// answers the first register with 409, as for an ID a crashed prior run
// left resident, and the reclaiming delete with the case's status. A
// successful reclaim re-registers and plays; a failed one returns the
// delete's error, not the register's.
func TestSvcSessionReclaim(t *testing.T) {
	backend := abrsvc.New(abrsvc.Config{Tables: fastmpc.NewRegistry()}).Handler()
	for _, tc := range []struct {
		name   string
		status int
	}{
		{"delete succeeds", http.StatusNoContent},
		{"delete fails", http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var registers, deletes atomic.Int32
			reply := func(w http.ResponseWriter, status int, msg string) {
				if status == http.StatusNoContent {
					w.WriteHeader(status)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(status)
				_ = json.NewEncoder(w).Encode(abrsvc.ErrorResponse{Error: msg})
			}
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.Method == http.MethodPost && r.URL.Path == "/v1/session" && registers.Add(1) == 1:
					reply(w, http.StatusConflict, "session already registered")
				case r.Method == http.MethodDelete && deletes.Add(1) == 1:
					reply(w, tc.status, "stub delete")
				default:
					backend.ServeHTTP(w, r)
				}
			}))
			defer stub.Close()

			f, err := New(svcTestScenario(2), Options{Backend: BackendSvc, SvcURL: stub.URL})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if f.svc, err = f.startSvc(ctx); err != nil {
				t.Fatal(err)
			}
			defer f.svc.close(ctx)

			ps := f.pops[0]
			res, err := f.playSvcSession(ctx, ps, 0, ps.traceFor(0, f.pool), f.sessionConfig(ps, 0))
			if tc.status == http.StatusNoContent {
				if err != nil {
					t.Fatalf("reclaimed session failed: %v", err)
				}
				if len(res.Chunks) == 0 || registers.Load() != 2 {
					t.Fatalf("played %d chunks after %d registers, want > 0 after 2", len(res.Chunks), registers.Load())
				}
				return
			}
			var apiErr *abrsvc.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != tc.status {
				t.Fatalf("got error %v, want the delete's %d", err, tc.status)
			}
			if registers.Load() != 1 {
				t.Fatalf("%d registers after a failed reclaim, want 1", registers.Load())
			}
		})
	}
}

// TestFleetFailedSessionCounted: on every backend a failed session counts
// on the errors series and the population plays on, so the report
// accounts for every session and the sessions after the failed one still
// reach the aggregate. On sim a dead trace fails the sessions drawn onto
// it. On svc a stub in front of a real service answers one session's
// decide for chunk k with 404, as after TTL eviction: that session makes
// exactly one request for chunk k and no decide after it.
func TestFleetFailedSessionCounted(t *testing.T) {
	const k = 2
	sc := svcTestScenario(16)
	victim := fmt.Sprintf("%s.%s.%d.%d", sc.Name, sc.Populations[0].Name, sc.Seed, 0)
	var chunkK, after atomic.Int32
	backend := abrsvc.New(abrsvc.Config{Tables: fastmpc.NewRegistry()}).Handler()
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/decide" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			var req abrsvc.DecideRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Error(err)
			}
			switch {
			case req.Session == victim && req.Chunk == k:
				chunkK.Add(1)
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusNotFound)
				_ = json.NewEncoder(w).Encode(abrsvc.ErrorResponse{Error: "unknown session"})
				return
			case req.Session == victim && req.Chunk > k:
				after.Add(1)
			}
		}
		backend.ServeHTTP(w, r)
	}))
	defer stub.Close()

	dead, err := trace.FromRates("dead", 60, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opt  Options
		dead bool // put the dead trace into the pool
	}{
		{"sim", Options{}, true},
		{"svc", Options{Backend: BackendSvc, SvcURL: stub.URL}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := New(svcTestScenario(16), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(1) // the victim
			if tc.dead {
				f.pool["hsdpa"][0] = dead
				want = 0
				for _, ps := range f.pops {
					for i := range ps.pop.Sessions {
						if ps.traceFor(i, f.pool) == dead {
							want++
						}
					}
				}
			}
			rep, err := f.Run(context.Background())
			if err != nil {
				t.Fatalf("a failed session aborted the run: %v", err)
			}
			var errs int64
			for _, p := range rep.Populations {
				errs += p.Errors
				if p.Completed+p.Errors != int64(p.Sessions) {
					t.Errorf("population %s: %d completed + %d errors of %d sessions",
						p.Name, p.Completed, p.Errors, p.Sessions)
				}
			}
			if want == 0 || errs != want {
				t.Errorf("%d session errors, want %d (> 0)", errs, want)
			}
			if !tc.dead && (chunkK.Load() != 1 || after.Load() != 0) {
				t.Errorf("victim sent %d requests for chunk %d and %d decides after it, want 1 and 0",
					chunkK.Load(), k, after.Load())
			}
		})
	}
}
