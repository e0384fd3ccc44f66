package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mpcdash/internal/model"
	"mpcdash/internal/runner"
	"mpcdash/internal/trace"
)

// Scenario describes one load-generation run: a shared video and trace
// pool, a global in-flight cap, and one or more session populations.
// Everything random — arrival gaps, trace assignment, watch durations —
// derives from Seed, so a scenario is a complete, replayable experiment.
type Scenario struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`

	Video     VideoSpec     `json:"video"`
	TracePool TracePoolSpec `json:"trace_pool"`

	// MaxInFlight caps concurrently playing sessions across all
	// populations (admission control); 0 selects 2×GOMAXPROCS.
	MaxInFlight int `json:"max_in_flight"`

	// Weights selects the QoE preference preset: "balanced" (default),
	// "avoid_instability" or "avoid_rebuffering" (Fig 11b's sets).
	Weights string `json:"weights"`
	// BufferMaxSec and Horizon override the player configuration;
	// zero values select the paper defaults (30 s, 5 chunks).
	BufferMaxSec float64 `json:"buffer_max_sec"`
	Horizon      int     `json:"horizon"`

	Populations []Population `json:"populations"`
}

// VideoSpec is the shared video: zero values select the paper's Envivio
// test content (the 350–3000 kbps ladder, 65 × 4 s chunks).
type VideoSpec struct {
	LadderKbps []float64 `json:"ladder_kbps"`
	Chunks     int       `json:"chunks"`
	ChunkSec   float64   `json:"chunk_sec"`
}

// TracePoolSpec sizes the shared network-trace pool. Sessions sample
// traces from a fixed pool rather than generating one each, which is both
// how the measured datasets work (many sessions per trace) and what keeps
// trace memory O(pool), not O(sessions).
type TracePoolSpec struct {
	// PerKind traces are generated for every dataset kind referenced by
	// some population's trace mix; 0 selects 64.
	PerKind int `json:"per_kind"`
	// DurationSec per trace; 0 selects the video duration plus 120 s.
	DurationSec float64 `json:"duration_sec"`
}

// Population is a homogeneous group of sessions: one algorithm, one
// arrival process, one trace mix, one churn model.
type Population struct {
	Name string `json:"name"`
	// Algorithm is a runner algorithm name: RB, BB, FESTIVE, dash.js,
	// FastMPC, RobustMPC or MPC (case-insensitive).
	Algorithm string `json:"algorithm"`
	Sessions  int    `json:"sessions"`

	Arrival Arrival `json:"arrival"`

	// TraceMix weights the dataset kinds sessions draw their network
	// trace from, e.g. {"fcc": 3, "hsdpa": 1}. Empty means all-FCC.
	TraceMix map[string]float64 `json:"trace_mix"`

	Watch Watch `json:"watch"`

	// AbandonRebufferSec ends a session once its cumulative stall time
	// reaches this many seconds — the viewer gives up; 0 disables.
	AbandonRebufferSec float64 `json:"abandon_rebuffer_sec"`
}

// Arrival selects the session arrival process.
type Arrival struct {
	// Process is "asap" (all at once, the default), "ramp" (fixed
	// inter-arrival 1/rate) or "poisson" (exponential gaps at rate).
	Process string `json:"process"`
	// RatePerSec is the arrival rate for ramp and poisson.
	RatePerSec float64 `json:"rate_per_sec"`
}

// Watch selects the watch-duration (churn) distribution in chunks.
type Watch struct {
	// Dist is "full" (whole video, the default), "fixed" (exactly
	// Chunks) or "uniform" (uniform on [MinChunks, MaxChunks]).
	Dist      string `json:"dist"`
	Chunks    int    `json:"chunks"`
	MinChunks int    `json:"min_chunks"`
	MaxChunks int    `json:"max_chunks"`
}

// LoadScenario reads and validates a scenario JSON file.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	var sc Scenario
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("fleet: parsing %s: %w", path, err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// WriteJSON renders the scenario as indented JSON — the round-trippable
// form LoadScenario reads back.
func (sc *Scenario) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sc)
}

// Validate checks the scenario for consistency.
func (sc *Scenario) Validate() error {
	if len(sc.Populations) == 0 {
		return fmt.Errorf("fleet: scenario %q has no populations", sc.Name)
	}
	if sc.MaxInFlight < 0 {
		return fmt.Errorf("fleet: scenario %q: max_in_flight must be non-negative", sc.Name)
	}
	switch strings.ToLower(sc.Weights) {
	case "", "balanced", "avoid_instability", "avoid_rebuffering":
	default:
		return fmt.Errorf("fleet: scenario %q: unknown weights preset %q", sc.Name, sc.Weights)
	}
	if sc.TracePool.PerKind < 0 || sc.TracePool.DurationSec < 0 {
		return fmt.Errorf("fleet: scenario %q: trace pool sizes must be non-negative", sc.Name)
	}
	v := sc.video()
	if v.Chunks <= 0 || v.ChunkSec <= 0 || len(v.LadderKbps) == 0 {
		return fmt.Errorf("fleet: scenario %q: invalid video spec", sc.Name)
	}
	seen := make(map[string]bool, len(sc.Populations))
	for i := range sc.Populations {
		p := &sc.Populations[i]
		if p.Name == "" {
			return fmt.Errorf("fleet: population %d has no name", i)
		}
		if seen[p.Name] {
			return fmt.Errorf("fleet: duplicate population name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Sessions <= 0 {
			return fmt.Errorf("fleet: population %q: sessions must be positive", p.Name)
		}
		if p.AbandonRebufferSec < 0 {
			return fmt.Errorf("fleet: population %q: abandon_rebuffer_sec must be non-negative", p.Name)
		}
		switch strings.ToLower(p.Arrival.Process) {
		case "", "asap":
		case "ramp", "poisson":
			if p.Arrival.RatePerSec <= 0 {
				return fmt.Errorf("fleet: population %q: %s arrivals need rate_per_sec > 0",
					p.Name, p.Arrival.Process)
			}
		default:
			return fmt.Errorf("fleet: population %q: unknown arrival process %q", p.Name, p.Arrival.Process)
		}
		for kind, weight := range p.TraceMix {
			if _, err := trace.ParseKind(kind); err != nil {
				return fmt.Errorf("fleet: population %q: unknown trace kind %q", p.Name, kind)
			}
			if weight < 0 {
				return fmt.Errorf("fleet: population %q: trace mix weight for %q is negative", p.Name, kind)
			}
		}
		if kinds, _ := p.mixKinds(); len(kinds) == 0 {
			return fmt.Errorf("fleet: population %q: trace mix has no positive weight", p.Name)
		}
		switch strings.ToLower(p.Watch.Dist) {
		case "", "full":
		case "fixed":
			if p.Watch.Chunks <= 0 || p.Watch.Chunks > v.Chunks {
				return fmt.Errorf("fleet: population %q: fixed watch chunks %d out of range [1,%d]",
					p.Name, p.Watch.Chunks, v.Chunks)
			}
		case "uniform":
			if p.Watch.MinChunks <= 0 || p.Watch.MaxChunks < p.Watch.MinChunks || p.Watch.MaxChunks > v.Chunks {
				return fmt.Errorf("fleet: population %q: uniform watch range [%d,%d] invalid for a %d-chunk video",
					p.Name, p.Watch.MinChunks, p.Watch.MaxChunks, v.Chunks)
			}
		default:
			return fmt.Errorf("fleet: population %q: unknown watch distribution %q", p.Name, p.Watch.Dist)
		}
	}
	if _, err := sc.algorithms(); err != nil {
		return err
	}
	return nil
}

// video returns the video spec with defaults applied.
func (sc *Scenario) video() VideoSpec {
	v := sc.Video
	if len(v.LadderKbps) == 0 {
		v.LadderKbps = []float64(model.EnvivioLadder())
	}
	if v.Chunks == 0 {
		v.Chunks = 65
	}
	if v.ChunkSec == 0 { //lint:allow floateq zero is the JSON field-absent sentinel, never computed
		v.ChunkSec = 4
	}
	return v
}

// weights resolves the QoE preset.
func (sc *Scenario) weights() model.Weights {
	switch strings.ToLower(sc.Weights) {
	case "avoid_instability":
		return model.AvoidInstability
	case "avoid_rebuffering":
		return model.AvoidRebuffering
	default:
		return model.Balanced
	}
}

func (sc *Scenario) bufferMax() float64 {
	if sc.BufferMaxSec > 0 {
		return sc.BufferMaxSec
	}
	return 30
}

func (sc *Scenario) horizon() int {
	if sc.Horizon > 0 {
		return sc.Horizon
	}
	return 5
}

// algorithms resolves every population's algorithm name against
// runner.Catalog, shared across populations so expensive per-algorithm
// setup (the FastMPC table) happens once.
func (sc *Scenario) algorithms() (map[string]runner.Algorithm, error) {
	catalog := runner.Catalog(sc.weights(), model.QIdentity, sc.bufferMax(), sc.horizon())
	out := make(map[string]runner.Algorithm, len(sc.Populations))
	for i := range sc.Populations {
		p := &sc.Populations[i]
		alg, err := runner.Lookup(catalog, p.Algorithm)
		if err != nil {
			return nil, fmt.Errorf("fleet: population %q: %w", p.Name, err)
		}
		out[p.Name] = alg
	}
	return out, nil
}

// mixKinds returns the population's trace mix as (kind, cumulative
// weight) in canonical sorted-kind order, normalized to sum 1. Kinds are
// lower-cased, so "FCC" and "fcc" are one kind whose weights add.
func (p *Population) mixKinds() ([]string, []float64) {
	mix := map[string]float64{"fcc": 1}
	if len(p.TraceMix) > 0 {
		mix = make(map[string]float64, len(p.TraceMix))
		for k, w := range p.TraceMix {
			if w > 0 {
				mix[strings.ToLower(k)] += w
			}
		}
	}
	kinds := make([]string, 0, len(mix))
	for k := range mix {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var total float64
	for _, k := range kinds {
		total += mix[k]
	}
	cum := make([]float64, len(kinds))
	var acc float64
	for i, k := range kinds {
		acc += mix[k] / total
		cum[i] = acc
	}
	return kinds, cum
}

// DefaultScenario is the built-in demo: MPC-family vs. baseline
// populations over a mixed broadband/mobile trace pool with Poisson
// arrivals, 20%-churned viewers and a 30-second abandon policy, sized to
// the given total session count.
func DefaultScenario(sessions int) *Scenario {
	if sessions < 2 {
		sessions = 2
	}
	half := sessions / 2
	return &Scenario{
		Name:        "demo",
		Seed:        1,
		Video:       VideoSpec{Chunks: 65, ChunkSec: 4},
		TracePool:   TracePoolSpec{PerKind: 64},
		MaxInFlight: 0, // 2×GOMAXPROCS
		Populations: []Population{
			{
				Name:      "robustmpc",
				Algorithm: "RobustMPC",
				Sessions:  sessions - half,
				Arrival:   Arrival{Process: "poisson", RatePerSec: 2000},
				TraceMix:  map[string]float64{"fcc": 1, "hsdpa": 1},
				Watch:     Watch{Dist: "uniform", MinChunks: 13, MaxChunks: 65},
				// A viewer quits after half a minute of accumulated stall.
				AbandonRebufferSec: 30,
			},
			{
				Name:               "buffer-based",
				Algorithm:          "BB",
				Sessions:           half,
				Arrival:            Arrival{Process: "poisson", RatePerSec: 2000},
				TraceMix:           map[string]float64{"fcc": 1, "hsdpa": 1},
				Watch:              Watch{Dist: "uniform", MinChunks: 13, MaxChunks: 65},
				AbandonRebufferSec: 30,
			},
		},
	}
}
