package fleet

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"mpcdash/internal/obs"
)

// testScenario is a small, fast scenario: cheap algorithms, a short
// video, a compact trace pool.
func testScenario(sessions int) *Scenario {
	return &Scenario{
		Name:      "test",
		Seed:      42,
		Video:     VideoSpec{Chunks: 10, ChunkSec: 4},
		TracePool: TracePoolSpec{PerKind: 8, DurationSec: 200},
		Populations: []Population{
			{
				Name:               "rb",
				Algorithm:          "RB",
				Sessions:           sessions,
				TraceMix:           map[string]float64{"fcc": 2, "hsdpa": 1},
				Watch:              Watch{Dist: "uniform", MinChunks: 2, MaxChunks: 10},
				AbandonRebufferSec: 20,
			},
			{
				Name:      "bb",
				Algorithm: "BB",
				Sessions:  sessions / 2,
				TraceMix:  map[string]float64{"hsdpa": 1},
			},
		},
	}
}

func TestFleetRunCompletes(t *testing.T) {
	sc := testScenario(200)
	reg := obs.NewRegistry()
	f, err := New(sc, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Populations) != 2 {
		t.Fatalf("populations = %d", len(rep.Populations))
	}
	for _, p := range rep.Populations {
		if p.Launched != int64(p.Sessions) || p.Completed != int64(p.Sessions) {
			t.Errorf("%s: launched=%d completed=%d, want %d", p.Name, p.Launched, p.Completed, p.Sessions)
		}
		if p.Errors != 0 {
			t.Errorf("%s: errors = %d", p.Name, p.Errors)
		}
		if p.Chunks <= 0 || p.BitrateKbps.Mean <= 0 {
			t.Errorf("%s: empty aggregates: %+v", p.Name, p)
		}
	}
	// The churned population watches 2–10 chunks; the full-watch one
	// always 10.
	rb, bb := rep.Populations[0], rep.Populations[1]
	if rb.Chunks >= int64(rb.Sessions*10) {
		t.Errorf("churned population watched every chunk: %d", rb.Chunks)
	}
	if bb.Chunks != int64(bb.Sessions*10) {
		t.Errorf("full-watch population chunks = %d, want %d", bb.Chunks, bb.Sessions*10)
	}

	// Live metrics: per-population QoE histograms and the session
	// counters must be on /metrics.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	for _, want := range []string{
		MetricQoEPerChunk + `_bucket{population="rb"`,
		MetricQoEPerChunk + `_bucket{population="bb"`,
		MetricLaunchedTotal + `{population="rb"} 200`,
		MetricCompletedTotal + `{population="bb"} 100`,
		MetricInflight,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// The same scenario seed must produce byte-identical JSON reports:
// arrival spans, trace assignment and every aggregate are seed-derived
// and reduced in deterministic order even across differing worker
// interleavings. The admission cap bounds each population's worker
// pool, so one session at a time against 2×GOMAXPROCS gives two
// different interleavings; the report carries no MaxInFlight.
func TestFleetReportDeterministic(t *testing.T) {
	run := func(maxInFlight int) []byte {
		sc := testScenario(300)
		sc.MaxInFlight = maxInFlight
		// Exercise the seeded arrival path too (fast: 300 sessions at
		// 100k/s is 3 ms of pacing).
		sc.Populations[0].Arrival = Arrival{Process: "poisson", RatePerSec: 100000}
		sc.Populations[1].Arrival = Arrival{Process: "ramp", RatePerSec: 100000}
		f, err := New(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := run(1)
	b := run(runtime.GOMAXPROCS(0) * 2)
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ between runs of the same seed:\n--- run1\n%s\n--- run2\n%s", a, b)
	}
	if !strings.Contains(string(a), `"arrival_span_sec"`) {
		t.Fatalf("report missing arrival span: %s", a)
	}
}

// Cancelling the context mid-run must drain gracefully: no new launches,
// in-flight sessions aggregated, Run returns promptly with ctx.Err() and
// a consistent partial report.
func TestFleetDrainOnCancel(t *testing.T) {
	sc := testScenario(50000)
	// Slow the launch rate (500/s in all) so the run is guaranteed to
	// still be going when the cancel lands.
	for i := range sc.Populations {
		sc.Populations[i].Arrival = Arrival{Process: "ramp", RatePerSec: 250}
	}
	f, err := New(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var rep *Report
	var runErr error
	go func() {
		rep, runErr = f.Run(ctx)
		close(done)
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("fleet did not drain within 5s of cancellation")
	}
	if runErr != context.Canceled {
		t.Fatalf("Run error = %v, want context.Canceled", runErr)
	}
	if rep == nil {
		t.Fatal("no partial report")
	}
	var launched, completed int64
	for _, p := range rep.Populations {
		launched += p.Launched
		completed += p.Completed
		if p.Completed > p.Launched {
			t.Errorf("%s: completed %d > launched %d", p.Name, p.Completed, p.Launched)
		}
	}
	if launched >= 75000 {
		t.Errorf("launched %d sessions despite cancellation", launched)
	}
	if completed == 0 {
		t.Error("drained run aggregated nothing; expected in-flight sessions to finish")
	}
}

// The abandon policy must fire: a population on hopeless links with a
// tight abandon threshold abandons sessions, and abandoned sessions
// watch fewer chunks.
func TestFleetAbandonPolicy(t *testing.T) {
	sc := &Scenario{
		Name:      "abandon",
		Seed:      7,
		Video:     VideoSpec{LadderKbps: []float64{3000, 6000}, Chunks: 20, ChunkSec: 4},
		TracePool: TracePoolSpec{PerKind: 4, DurationSec: 400},
		Populations: []Population{{
			Name:      "impatient",
			Algorithm: "RB",
			Sessions:  50,
			// HSDPA outage dips against a 3 Mbps floor: guaranteed stalls.
			TraceMix:           map[string]float64{"hsdpa": 1},
			AbandonRebufferSec: 5,
		}},
	}
	f, err := New(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Populations[0]
	if p.Abandoned == 0 {
		t.Fatalf("no sessions abandoned on a 3–6 Mbps floor over mobile links: %+v", p)
	}
	if p.Chunks >= int64(p.Sessions*20) {
		t.Errorf("abandoned sessions still watched everything: %d chunks", p.Chunks)
	}
}

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"no populations", func(s *Scenario) { s.Populations = nil }},
		{"bad algorithm", func(s *Scenario) { s.Populations[0].Algorithm = "nope" }},
		{"zero sessions", func(s *Scenario) { s.Populations[0].Sessions = 0 }},
		{"bad kind", func(s *Scenario) { s.Populations[0].TraceMix = map[string]float64{"lte": 1} }},
		{"bad arrival", func(s *Scenario) { s.Populations[0].Arrival.Process = "burst" }},
		{"poisson without rate", func(s *Scenario) { s.Populations[0].Arrival = Arrival{Process: "poisson"} }},
		{"watch too long", func(s *Scenario) { s.Populations[0].Watch = Watch{Dist: "fixed", Chunks: 99} }},
		{"uniform watch inverted", func(s *Scenario) { s.Populations[0].Watch = Watch{Dist: "uniform", MinChunks: 9, MaxChunks: 3} }},
		{"duplicate names", func(s *Scenario) { s.Populations[1].Name = s.Populations[0].Name }},
		{"bad weights", func(s *Scenario) { s.Weights = "speedrun" }},
	}
	for _, tc := range cases {
		sc := testScenario(10)
		tc.mut(sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
	if err := testScenario(10).Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}
