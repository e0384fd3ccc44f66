// Package mpcdash is a complete Go implementation of "A Control-Theoretic
// Approach for Dynamic Adaptive Video Streaming over HTTP" (Yin, Jindal,
// Sekar, Sinopoli — SIGCOMM 2015): the MPC / RobustMPC / FastMPC bitrate
// controllers, the rate-based, buffer-based, FESTIVE and dash.js baselines,
// a trace-driven playback simulator, a shaped-HTTP emulation testbed, the
// offline-optimal QoE normalizer, and the workload generators used by the
// paper's evaluation.
//
// The root package is the stable facade: construct a Video and a Trace,
// pick an Algorithm, and Run a session — or generate whole Datasets and
// Compare algorithms across them. The building blocks live in internal/
// packages and are re-wired here; see DESIGN.md for the map.
//
//	video := mpcdash.EnvivioVideo()
//	traces := mpcdash.GenerateDataset(mpcdash.DatasetFCC, 100, video.Duration()+60, 42)
//	res, err := mpcdash.Run(video, traces[0], mpcdash.RobustMPC, mpcdash.DefaultConfig())
//	fmt.Println(res.QoE, res.Metrics.RebufferTime)
package mpcdash

import (
	"fmt"
	"io"

	"mpcdash/internal/export"
	"mpcdash/internal/model"
	"mpcdash/internal/obs"
	"mpcdash/internal/optimal"
	"mpcdash/internal/runner"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// Video describes the content being streamed: the bitrate ladder and the
// chunking. The zero value is not usable; construct via NewVideo,
// NewVBRVideo or EnvivioVideo.
type Video struct {
	manifest *model.Manifest
}

// NewVideo builds a constant-bitrate video with the given ladder (kbps,
// strictly ascending), chunk count and chunk duration in seconds.
func NewVideo(ladderKbps []float64, chunks int, chunkDur float64) (*Video, error) {
	m, err := model.NewCBRManifest(model.Ladder(ladderKbps), chunks, chunkDur)
	if err != nil {
		return nil, err
	}
	return &Video{manifest: m}, nil
}

// NewVBRVideo builds a variable-bitrate video whose chunk sizes fluctuate
// log-normally with the given coefficient of variation, deterministic in
// the seed.
func NewVBRVideo(ladderKbps []float64, chunks int, chunkDur, cv float64, seed int64) (*Video, error) {
	m, err := model.NewVBRManifest(model.Ladder(ladderKbps), chunks, chunkDur, cv, seed)
	if err != nil {
		return nil, err
	}
	return &Video{manifest: m}, nil
}

// EnvivioVideo is the paper's 260-second test video: 65 chunks × 4 s at
// {350, 600, 1000, 2000, 3000} kbps.
func EnvivioVideo() *Video {
	return &Video{manifest: model.EnvivioManifest()}
}

// Duration returns the video's play time in seconds.
func (v *Video) Duration() float64 { return v.manifest.Duration() }

// Ladder returns the bitrate levels in kbps.
func (v *Video) Ladder() []float64 {
	return append([]float64(nil), v.manifest.Ladder...)
}

// ChunkCount returns the number of segments.
func (v *Video) ChunkCount() int { return v.manifest.ChunkCount }

// Trace is a network-throughput trajectory the player streams over.
type Trace struct {
	tr *trace.Trace
}

// NewTrace builds a trace from uniform samples: each rate in kbps holds for
// interval seconds; past the end the trace repeats.
func NewTrace(name string, interval float64, kbps []float64) (*Trace, error) {
	tr, err := trace.FromRates(name, interval, kbps)
	if err != nil {
		return nil, err
	}
	return &Trace{tr: tr}, nil
}

// ReadTrace parses a text-format trace: one "duration kbps" sample per
// line, blank lines and #-comments skipped. Sample durations may differ.
func ReadTrace(r io.Reader, name string) (*Trace, error) {
	tr, err := trace.Read(r, name)
	if err != nil {
		return nil, err
	}
	return &Trace{tr: tr}, nil
}

// Name returns the trace's identifier.
func (t *Trace) Name() string { return t.tr.Name }

// Mean returns the average throughput in kbps.
func (t *Trace) Mean() float64 { return t.tr.Mean() }

// Stddev returns the throughput standard deviation in kbps.
func (t *Trace) Stddev() float64 { return t.tr.Stddev() }

// Dataset identifies one of the paper's three trace populations.
type Dataset int

// The three evaluation datasets of Sec 7.1.1.
const (
	DatasetFCC       = Dataset(trace.FCC)       // broadband-like, 5 s samples, most stable
	DatasetHSDPA     = Dataset(trace.HSDPA)     // 3G-mobile-like, 1 s samples, most variable
	DatasetSynthetic = Dataset(trace.Synthetic) // hidden-Markov bottleneck-sharing model
)

// GenerateDataset deterministically synthesizes count traces of at least
// the given duration (seconds). See internal/trace for the generator
// models and DESIGN.md for how they substitute the measured datasets.
func GenerateDataset(kind Dataset, count int, duration float64, seed int64) []*Trace {
	if kind < DatasetFCC || kind > DatasetSynthetic {
		return nil
	}
	raw := trace.Dataset(trace.DatasetKind(kind), count, duration, seed)
	out := make([]*Trace, len(raw))
	for i, tr := range raw {
		out[i] = &Trace{tr: tr}
	}
	return out
}

// Weights are the QoE preference parameters of Eq. (5): λ weighs quality
// variation, µ rebuffer seconds, µs startup seconds (all in kbps-equivalent
// units).
type Weights struct {
	Lambda float64
	Mu     float64
	MuS    float64
}

// The preference sets evaluated in the paper (Fig 11b).
var (
	BalancedWeights         = Weights{1, 3000, 3000}
	AvoidInstabilityWeights = Weights{3, 3000, 3000}
	AvoidRebufferingWeights = Weights{1, 6000, 6000}
)

func (w Weights) internal() model.Weights {
	return model.Weights{Lambda: w.Lambda, Mu: w.Mu, MuS: w.MuS}
}

// Config parameterizes a playback session.
type Config struct {
	BufferMax float64 // playout buffer cap in seconds (paper: 30)
	Horizon   int     // MPC look-ahead in chunks (paper: 5)
	Weights   Weights // QoE preference

	// Obs attaches the observability layer (metrics registry and/or
	// decision-trace sink) to every session run with this config. The
	// field is typed on the module-internal obs package: it is wired by
	// this module's commands (via -metrics-addr / -trace-out); external
	// importers observe sessions through Result.WriteTrace instead.
	Obs *obs.Recorder
}

// DefaultConfig is the paper's configuration.
func DefaultConfig() Config {
	return Config{BufferMax: 30, Horizon: 5, Weights: BalancedWeights}
}

func (c Config) validate() error {
	if c.BufferMax <= 0 {
		return fmt.Errorf("mpcdash: BufferMax must be positive, got %v", c.BufferMax)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("mpcdash: Horizon must be positive, got %d", c.Horizon)
	}
	return nil
}

// Algorithm selects a bitrate-adaptation algorithm.
type Algorithm int

// The algorithms of Sec 7.1.2 plus the exact-MPC variants.
const (
	RB        Algorithm = iota // rate-based: highest level under predicted throughput
	BB                         // buffer-based (Huang et al.), reservoir 5 s / cushion 10 s
	FESTIVE                    // Jiang et al., single-player configuration
	DashJS                     // dash.js v1.2 rule-based heuristic
	MPC                        // exact receding-horizon MPC, harmonic-mean predictor
	RobustMPC                  // MPC on the error-tracked throughput lower bound
	FastMPC                    // table-enumerated MPC (100×5×100 bins, RLE)
	MPCOpt                     // MPC with a perfect throughput oracle (upper line)
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case RB:
		return "RB"
	case BB:
		return "BB"
	case FESTIVE:
		return "FESTIVE"
	case DashJS:
		return "dash.js"
	case MPC:
		return "MPC"
	case RobustMPC:
		return "RobustMPC"
	case FastMPC:
		return "FastMPC"
	case MPCOpt:
		return "MPC-OPT"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms lists every selectable algorithm in display order.
func Algorithms() []Algorithm {
	return []Algorithm{RB, BB, FESTIVE, DashJS, MPC, RobustMPC, FastMPC, MPCOpt}
}

// runnerAlgorithm wires an Algorithm to its controller, predictor and
// startup policy.
func runnerAlgorithm(a Algorithm, cfg Config, chunkDur float64) (runner.Algorithm, error) {
	w := cfg.Weights.internal()
	if a == MPCOpt {
		return runner.MPCOptAlgorithm(w, model.QIdentity, cfg.BufferMax, cfg.Horizon, chunkDur), nil
	}
	alg, err := runner.Lookup(runner.Catalog(w, model.QIdentity, cfg.BufferMax, cfg.Horizon), a.String())
	if err != nil {
		return runner.Algorithm{}, fmt.Errorf("mpcdash: %w", err)
	}
	return alg, nil
}

// ChunkStat is the per-chunk outcome of a session.
type ChunkStat struct {
	Index        int
	Bitrate      float64 // kbps chosen
	Level        int     // ladder index chosen
	DownloadTime float64 // seconds
	Throughput   float64 // measured kbps
	Buffer       float64 // seconds, when the download started
	Rebuffer     float64 // stall seconds attributable to this chunk
}

// Metrics are the aggregate QoE factors of a session.
type Metrics struct {
	AvgBitrate       float64
	AvgBitrateChange float64
	Switches         int
	RebufferTime     float64
	RebufferEvents   int
	StartupDelay     float64
}

// Result is a completed playback session.
type Result struct {
	Algorithm string
	TraceName string
	QoE       float64 // Eq. (5) value
	NormQoE   float64 // QoE / offline-optimal QoE (NaN if not computed)
	PredError float64 // session-average throughput prediction error
	Metrics   Metrics
	Chunks    []ChunkStat

	session *model.SessionResult // full log, for the export methods
	weights model.Weights
}

// WriteJSON writes the complete session log (per-chunk records, metrics,
// QoE) as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	return export.WriteJSON(w, r.session, r.weights, model.QIdentity)
}

// WriteCSV writes the per-chunk log as CSV with a header row.
func (r *Result) WriteCSV(w io.Writer) error {
	return export.WriteCSV(w, r.session)
}

// WriteTrace writes the session as a Chrome trace-event JSON document:
// open the file in chrome://tracing or https://ui.perfetto.dev to see the
// full timeline — one span per chunk download, the controller's solver
// time, stalls, buffer-full waits, and counter tracks for buffer level
// and predicted vs. actual throughput.
func (r *Result) WriteTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, obs.EventsFromSession(r.session))
}

func toResult(o runner.Outcome, w Weights) *Result {
	r := &Result{
		Algorithm: o.Algorithm,
		TraceName: o.TraceName,
		QoE:       o.QoE,
		NormQoE:   o.NormQoE,
		PredError: o.PredError,
		Metrics: Metrics{
			AvgBitrate:       o.Metrics.AvgBitrate,
			AvgBitrateChange: o.Metrics.AvgBitrateChange,
			Switches:         o.Metrics.Switches,
			RebufferTime:     o.Metrics.RebufferTime,
			RebufferEvents:   o.Metrics.RebufferEvents,
			StartupDelay:     o.Metrics.StartupDelay,
		},
		Chunks:  make([]ChunkStat, len(o.Result.Chunks)),
		session: o.Result,
		weights: w.internal(),
	}
	for i, c := range o.Result.Chunks {
		r.Chunks[i] = ChunkStat{
			Index:        c.Index,
			Bitrate:      c.Bitrate,
			Level:        c.Level,
			DownloadTime: c.DownloadTime,
			Throughput:   c.Throughput,
			Buffer:       c.BufferBefore,
			Rebuffer:     c.Rebuffer,
		}
	}
	return r
}

// newRunner assembles the session runner for a config.
func newRunner(v *Video, cfg Config, normalize bool) *runner.Runner {
	r := runner.New(v.manifest)
	r.Weights = cfg.Weights.internal()
	r.Sim = sim.Config{BufferMax: cfg.BufferMax, Horizon: cfg.Horizon}
	r.Normalize = normalize
	r.Obs = cfg.Obs
	return r
}

// Run plays one session of the video over the trace with the chosen
// algorithm and returns its full result, including the normalized QoE.
func Run(v *Video, t *Trace, a Algorithm, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	alg, err := runnerAlgorithm(a, cfg, v.manifest.ChunkDuration)
	if err != nil {
		return nil, err
	}
	out, err := newRunner(v, cfg, true).RunSession(alg, t.tr)
	if err != nil {
		return nil, err
	}
	return toResult(out, cfg.Weights), nil
}

// Compare runs every algorithm over every trace and returns per-algorithm
// result lists keyed by Algorithm.String(). The offline optimum is computed
// once per trace and shared.
func Compare(v *Video, traces []*Trace, algs []Algorithm, cfg Config) (map[string][]*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := newRunner(v, cfg, true)
	raw := make([]*trace.Trace, len(traces))
	for i, t := range traces {
		raw[i] = t.tr
	}
	out := make(map[string][]*Result, len(algs))
	for _, a := range algs {
		alg, err := runnerAlgorithm(a, cfg, v.manifest.ChunkDuration)
		if err != nil {
			return nil, err
		}
		outs, err := r.RunDataset(alg, raw)
		if err != nil {
			return nil, err
		}
		results := make([]*Result, len(outs))
		for i, o := range outs {
			results[i] = toResult(o, cfg.Weights)
		}
		out[a.String()] = results
	}
	return out, nil
}

// OfflineOptimal returns QoE(OPT) for the trace: the best Eq. (5) value
// attainable with perfect knowledge of the whole trace (continuous-bitrate
// relaxation, as in the paper's footnote 6).
func OfflineOptimal(v *Video, t *Trace, cfg Config) (float64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	s, err := optimal.NewSolver(v.manifest, cfg.Weights.internal(), model.QIdentity, cfg.BufferMax)
	if err != nil {
		return 0, err
	}
	return s.Solve(t.tr), nil
}

// OptimalPlan reconstructs one offline-optimal schedule for the trace: the
// startup delay and the per-chunk rate sequence (kbps; the relaxation may
// pick rates between ladder rungs) achieving OfflineOptimal's QoE.
func OptimalPlan(v *Video, t *Trace, cfg Config) (startupDelay float64, rates []float64, qoe float64, err error) {
	if err := cfg.validate(); err != nil {
		return 0, nil, 0, err
	}
	s, err := optimal.NewSolver(v.manifest, cfg.Weights.internal(), model.QIdentity, cfg.BufferMax)
	if err != nil {
		return 0, nil, 0, err
	}
	plan := s.SolvePlan(t.tr)
	return plan.StartupDelay, plan.Rates, plan.QoE, nil
}
