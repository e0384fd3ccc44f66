package multiplayer

import (
	"math"
	"reflect"
	"testing"

	"mpcdash/internal/abr"
	"mpcdash/internal/core"
	"mpcdash/internal/model"
	"mpcdash/internal/predictor"
	"mpcdash/internal/runner"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

func shortVideo(t *testing.T) *model.Manifest {
	t.Helper()
	m, err := model.NewCBRManifest(model.EnvivioLadder(), 15, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func constLink(t *testing.T, kbps float64) *trace.Trace {
	t.Helper()
	tr, err := trace.FromRates("link", 1000, []float64{kbps})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func rbPlayer(name string, m *model.Manifest) Player {
	return Player{
		Name:       name,
		Controller: abr.NewRB(1)(m),
		Predictor:  predictor.NewHarmonicMean(5),
	}
}

func TestRunValidation(t *testing.T) {
	m := shortVideo(t)
	link := constLink(t, 2000)
	if _, err := Run(m, link, []Player{rbPlayer("a", m)}, sim.Config{BufferMax: 0}); err == nil {
		t.Error("zero buffer should fail")
	}
	if _, err := Run(m, link, nil, sim.DefaultConfig()); err == nil {
		t.Error("no players should fail")
	}
	dead, err := trace.FromRates("dead", 10, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, dead, []Player{rbPlayer("a", m)}, sim.DefaultConfig()); err == nil {
		t.Error("dead link should fail")
	}
}

func TestSinglePlayerCompletes(t *testing.T) {
	m := shortVideo(t)
	res, err := Run(m, constLink(t, 2000), []Player{rbPlayer("solo", m)}, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sessions) != 1 || len(res.Sessions[0].Chunks) != m.ChunkCount {
		t.Fatalf("session incomplete: %d chunks", len(res.Sessions[0].Chunks))
	}
	if res.JainIndex != 1 {
		t.Errorf("single player Jain = %v, want 1", res.JainIndex)
	}
	// A lone downloader has the whole link to itself.
	for _, c := range res.Sessions[0].Chunks {
		if !near(c.Throughput, 2000) {
			t.Errorf("chunk %d: solo throughput %v, want the link rate 2000", c.Index, c.Throughput)
		}
	}
}

// near reports whether got equals want up to float rounding.
func near(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }

func TestTwoPlayersShareFairly(t *testing.T) {
	m := shortVideo(t)
	players := []Player{rbPlayer("a", m), rbPlayer("b", m)}
	res, err := Run(m, constLink(t, 3000), players, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.JainIndex < 0.9 {
		t.Errorf("identical players should share fairly: Jain = %v", res.JainIndex)
	}
	// A chunk both players download over the same span gets exactly half
	// the link.
	a, b := res.Sessions[0].Chunks, res.Sessions[1].Chunks
	together := 0
	for k := range a {
		if a[k].StartTime != b[k].StartTime || a[k].DownloadTime != b[k].DownloadTime {
			continue
		}
		together++
		for _, c := range []model.ChunkRecord{a[k], b[k]} {
			if !near(c.Throughput, 1500) {
				t.Errorf("chunk %d: shared throughput %v, want half of 3000", k, c.Throughput)
			}
		}
	}
	if together == 0 {
		t.Error("no chunk was downloaded by both players together")
	}
	for _, sr := range res.Sessions {
		if len(sr.Chunks) != m.ChunkCount {
			t.Fatalf("%s incomplete: %d chunks", sr.Algorithm, len(sr.Chunks))
		}
	}
}

// TestSoloVsShared: adding a competitor must not increase a player's
// average bitrate.
func TestSoloVsShared(t *testing.T) {
	m := shortVideo(t)
	link := constLink(t, 2500)
	solo, err := Run(m, link, []Player{rbPlayer("a", m)}, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Run(m, link, []Player{rbPlayer("a", m), rbPlayer("b", m)}, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	soloAvg := solo.Sessions[0].ComputeMetrics(model.QIdentity).AvgBitrate
	sharedAvg := shared.Sessions[0].ComputeMetrics(model.QIdentity).AvgBitrate
	if sharedAvg > soloAvg+1e-9 {
		t.Errorf("sharing increased bitrate: solo %v vs shared %v", soloAvg, sharedAvg)
	}
}

func TestStartOffsets(t *testing.T) {
	m := shortVideo(t)
	players := []Player{rbPlayer("early", m), rbPlayer("late", m)}
	players[1].StartOffset = 20
	res, err := Run(m, constLink(t, 2000), players, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions[1].Chunks[0].StartTime < 20 {
		t.Errorf("late player started at %v, want ≥20", res.Sessions[1].Chunks[0].StartTime)
	}
}

func TestBufferCapRespected(t *testing.T) {
	m := shortVideo(t)
	cfg := sim.DefaultConfig()
	cfg.BufferMax = 12
	res, err := Run(m, constLink(t, 20000), []Player{rbPlayer("fast", m)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var kbits float64
	for _, c := range res.Sessions[0].Chunks {
		if c.BufferAfter > 12+1e-6 {
			t.Errorf("chunk %d buffer %v exceeds cap", c.Index, c.BufferAfter)
		}
		kbits += c.SizeKbits
	}
	// The player is active from its arrival at 0 until its last chunk is
	// delivered; the link idles through its buffer-full waits.
	last := res.Sessions[0].Chunks[m.ChunkCount-1]
	want := kbits / (20000 * (last.StartTime + last.DownloadTime))
	if !near(res.Utilization, want) || want >= 1 {
		t.Errorf("utilization %v, want %v < 1", res.Utilization, want)
	}
}

func TestUndersizedLinkStalls(t *testing.T) {
	m := shortVideo(t)
	// Two players on a link that cannot sustain even two lowest-rate
	// streams: 500 kbps shared vs 2×350.
	players := []Player{rbPlayer("a", m), rbPlayer("b", m)}
	res, err := Run(m, constLink(t, 500), players, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var stall float64
	for _, sr := range res.Sessions {
		stall += sr.ComputeMetrics(model.QIdentity).RebufferTime
	}
	if stall <= 0 {
		t.Error("expected stalls on a starved shared link")
	}
	// Someone is always downloading, so the link never idles.
	if !near(res.Utilization, 1) {
		t.Errorf("utilization %v on a starved link, want 1", res.Utilization)
	}
}

// TestMPCPlayersCoexist: the shared-link loop must handle MPC controllers
// (with error-tracked predictors) without deadlock and deliver full
// sessions.
func TestMPCPlayersCoexist(t *testing.T) {
	m := shortVideo(t)
	mk := func(name string) Player {
		return Player{
			Name:       name,
			Controller: core.NewRobustMPC(model.Balanced, model.QIdentity, 30, 5)(m),
			Predictor:  predictor.NewErrorTracked(predictor.NewHarmonicMean(5), 5),
		}
	}
	res, err := Run(m, constLink(t, 4000), []Player{mk("a"), mk("b")}, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.Sessions {
		if len(sr.Chunks) != m.ChunkCount {
			t.Fatalf("%s incomplete", sr.Algorithm)
		}
		qoe := sr.QoE(model.Balanced, model.QIdentity)
		if math.IsNaN(qoe) || math.IsInf(qoe, 0) {
			t.Fatalf("QoE = %v", qoe)
		}
	}
	if res.Utilization <= 0 || res.Utilization > 1+1e-12 {
		t.Errorf("utilization = %v", res.Utilization)
	}
}

func TestJain(t *testing.T) {
	if got := jain([]float64{100, 100, 100}); math.Abs(got-1) > 1e-9 {
		t.Errorf("equal shares Jain = %v", got)
	}
	if got := jain([]float64{100, 0, 0, 0}); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("max skew Jain = %v, want 0.25", got)
	}
	if got := jain(nil); got != 0 {
		t.Errorf("empty Jain = %v", got)
	}
	if got := jain([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero Jain = %v, want 1", got)
	}
}

// stripWall zeroes the wall-clock solver time, the one field of a session
// log that differs between two runs of the same session.
func stripWall(sr *model.SessionResult) {
	for i := range sr.Chunks {
		sr.Chunks[i].DecisionTime = 0
	}
}

// TestSinglePlayerIsSimRun: one player alone on the link plays exactly the
// session sim.Run plays over the same trace, for every algorithm of the
// catalog with its startup policy, with and without MaxChunks and
// AbandonRebuffer.
func TestSinglePlayerIsSimRun(t *testing.T) {
	m := model.EnvivioManifest()
	var traces []*trace.Trace
	for _, kind := range []trace.DatasetKind{trace.FCC, trace.HSDPA, trace.Synthetic} {
		traces = append(traces, trace.Dataset(kind, 3, m.Duration()+120, 42)...)
	}
	cfgs := map[string]func(*sim.Config){
		"default":   func(*sim.Config) {},
		"max20":     func(c *sim.Config) { c.MaxChunks = 20 },
		"abandon2s": func(c *sim.Config) { c.AbandonRebuffer = 2 },
	}
	for _, alg := range runner.Catalog(model.Balanced, model.QIdentity, 30, 5) {
		for cname, set := range cfgs {
			cfg := sim.DefaultConfig()
			cfg.Startup = alg.Startup
			set(&cfg)
			for _, tr := range traces {
				want, err := sim.Run(m, tr, alg.Factory(m), alg.Predictor(tr), cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(m, tr, []Player{{Name: "solo", Controller: alg.Factory(m), Predictor: alg.Predictor(tr)}}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := res.Sessions[0]
				stripWall(want)
				stripWall(got)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s/%s: multiplayer session differs from sim.Run (QoE %v vs %v)", alg.Name, cname, tr.Name,
						got.QoE(model.Balanced, model.QIdentity), want.QoE(model.Balanced, model.QIdentity))
				}
			}
		}
	}
}

// TestIdenticalPlayersShareEqually: identical players arriving together
// on one link play identical sessions, so the split is perfectly fair.
func TestIdenticalPlayersShareEqually(t *testing.T) {
	m := model.EnvivioManifest()
	tr := trace.Dataset(trace.FCC, 1, m.Duration()+120, 42)[0]
	for _, alg := range runner.StandardSet(model.Balanced, model.QIdentity, 30, 5) {
		cfg := sim.DefaultConfig()
		cfg.Startup = alg.Startup
		players := make([]Player, 4)
		for i := range players {
			players[i] = Player{Name: alg.Name, Controller: alg.Factory(m), Predictor: alg.Predictor(tr)}
		}
		res, err := Run(m, tr, players, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sr := range res.Sessions {
			stripWall(sr)
		}
		for i, sr := range res.Sessions[1:] {
			if !reflect.DeepEqual(sr, res.Sessions[0]) {
				t.Errorf("%s: player %d's session differs from player 0's", alg.Name, i+1)
			}
		}
		if res.JainIndex != 1 {
			t.Errorf("%s: Jain = %v, want exactly 1", alg.Name, res.JainIndex)
		}
	}
}
