package trace

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// The paper evaluates on three datasets (Sec 7.1.1). The measured FCC and
// HSDPA datasets are not redistributable, so we generate statistically
// matched synthetic equivalents: same sampling granularity (5 s / 1 s), the
// same mean-throughput filtering (0–3 Mbps for FCC), and the same
// variability ordering shown in Fig 7 (FCC most stable, HSDPA most
// variable). See DESIGN.md for the substitution rationale.

// GenFCC synthesizes one broadband-like trace: 5-second interval averages
// around a stable per-connection base rate with mild AR(1) jitter and rare
// congestion-level shifts. Mean throughput falls in (0, 3000] kbps, matching
// the paper's filtered selection.
func GenFCC(seed int64, duration float64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	const interval = 5.0
	n := int(math.Ceil(duration / interval))
	if n < 1 {
		n = 1
	}
	// Base rates drawn to cover the 0–3 Mbps band, avoiding trivially
	// low links.
	base := 300 + 2600*rng.Float64()
	jitterScale := base * (0.05 + 0.13*rng.Float64()) // 5–18% noise
	rates := make([]float64, n)
	level := base
	ar := 0.0
	for i := range rates {
		// Occasional level shift: transient congestion or recovery.
		if rng.Float64() < 0.05 {
			level = base * (0.5 + 0.9*rng.Float64())
		}
		ar = 0.7*ar + jitterScale*rng.NormFloat64()
		r := level + ar
		if r < 50 {
			r = 50
		}
		rates[i] = r
	}
	t, err := FromRates(fmt.Sprintf("fcc-%d", seed), interval, rates)
	if err != nil {
		panic(err) // generator invariant: all samples valid
	}
	return t
}

// GenHSDPA synthesizes one mobile-like trace: 1-second samples from a
// regime-switching channel (good / medium / bad / outage) with log-normal
// fast fading, modelling a moving device on a 3G network. These traces are
// far more variable than GenFCC's and include near-zero outage dips, which
// is what stresses throughput prediction in the paper's HSDPA results.
func GenHSDPA(seed int64, duration float64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	const interval = 1.0
	n := int(math.Ceil(duration / interval))
	if n < 1 {
		n = 1
	}
	type regime struct {
		mean float64 // kbps
		sig  float64 // log-normal sigma
	}
	// Per-trace device/route factor diversifies session means as in the
	// measured dataset (trams in good coverage vs trains in tunnels).
	scale := 0.4 + 1.3*rng.Float64()
	regimes := []regime{
		{mean: 3000 * scale, sig: 0.30}, // good coverage
		{mean: 1800 * scale, sig: 0.35}, // medium
		{mean: 900 * scale, sig: 0.45},  // bad
		{mean: 250 * scale, sig: 0.60},  // deep fade / handover outage
	}
	// Row-stochastic regime transition matrix: mobile enough that the
	// harmonic-mean predictor lags regime changes (the paper's HSDPA
	// prediction errors reach 40%), with outages short-lived.
	trans := [][]float64{
		{0.85, 0.12, 0.02, 0.01},
		{0.15, 0.72, 0.10, 0.03},
		{0.05, 0.20, 0.65, 0.10},
		{0.03, 0.12, 0.35, 0.50},
	}
	state := rng.Intn(len(regimes))
	rates := make([]float64, n)
	// AR(1)-correlated fading: real vehicular channels decorrelate over
	// seconds, not per sample, which is what keeps chunk-scale throughput
	// prediction feasible at all (Fig 7 right).
	const memory = 0.65
	fade := 0.0
	for i := range rates {
		state = nextState(rng, trans[state])
		r := regimes[state]
		fade = memory*fade + math.Sqrt(1-memory*memory)*rng.NormFloat64()
		// Log-normal fading with mean preserved: E[X]=mean.
		mu := math.Log(r.mean) - r.sig*r.sig/2
		v := math.Exp(mu + r.sig*fade)
		if v < 1 {
			v = 1
		}
		rates[i] = v
	}
	t, err := FromRates(fmt.Sprintf("hsdpa-%d", seed), interval, rates)
	if err != nil {
		panic(err)
	}
	return t
}

// MarkovConfig parameterizes the paper's synthetic model: a hidden state
// S_t (number of users sharing the bottleneck); given S_t = s, throughput
// is Gaussian with mean Means[s] and stddev Stddevs[s].
type MarkovConfig struct {
	Means      []float64   // kbps per hidden state
	Stddevs    []float64   // kbps per hidden state
	Transition [][]float64 // row-stochastic state transition matrix
	Interval   float64     // seconds between draws
}

// DefaultMarkovConfig models 1–4 users sharing a 4 Mbps bottleneck.
func DefaultMarkovConfig() MarkovConfig {
	return MarkovConfig{
		Means:   []float64{4000, 2000, 1333, 1000},
		Stddevs: []float64{400, 300, 250, 200},
		Transition: [][]float64{
			{0.85, 0.10, 0.04, 0.01},
			{0.10, 0.75, 0.10, 0.05},
			{0.05, 0.15, 0.70, 0.10},
			{0.02, 0.08, 0.20, 0.70},
		},
		Interval: 2.0,
	}
}

// Validate checks dimensional consistency and row stochasticity.
func (c *MarkovConfig) Validate() error {
	n := len(c.Means)
	if n == 0 {
		return fmt.Errorf("trace: markov config has no states")
	}
	if len(c.Stddevs) != n || len(c.Transition) != n {
		return fmt.Errorf("trace: markov config dimensions disagree (means %d, stddevs %d, transition %d)",
			n, len(c.Stddevs), len(c.Transition))
	}
	if c.Interval <= 0 {
		return fmt.Errorf("trace: markov interval must be positive, got %v", c.Interval)
	}
	for i, row := range c.Transition {
		if len(row) != n {
			return fmt.Errorf("trace: markov transition row %d has %d entries, want %d", i, len(row), n)
		}
		var sum float64
		for _, p := range row {
			if p < 0 {
				return fmt.Errorf("trace: markov transition row %d has negative probability", i)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("trace: markov transition row %d sums to %v, want 1", i, sum)
		}
	}
	return nil
}

// GenMarkov synthesizes one trace from the hidden-Markov model.
func GenMarkov(cfg MarkovConfig, seed int64, duration float64) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Ceil(duration / cfg.Interval))
	if n < 1 {
		n = 1
	}
	state := rng.Intn(len(cfg.Means))
	rates := make([]float64, n)
	for i := range rates {
		state = nextState(rng, cfg.Transition[state])
		v := cfg.Means[state] + cfg.Stddevs[state]*rng.NormFloat64()
		if v < 1 {
			v = 1
		}
		rates[i] = v
	}
	return FromRates(fmt.Sprintf("markov-%d", seed), cfg.Interval, rates)
}

// nextState samples the successor state from a transition row.
func nextState(rng *rand.Rand, row []float64) int {
	u := rng.Float64()
	var cum float64
	for i, p := range row {
		cum += p
		if u < cum {
			return i
		}
	}
	return len(row) - 1
}

// DatasetKind names one of the paper's three trace populations.
type DatasetKind int

const (
	FCC DatasetKind = iota
	HSDPA
	Synthetic
)

// String implements fmt.Stringer.
func (k DatasetKind) String() string {
	switch k {
	case FCC:
		return "FCC"
	case HSDPA:
		return "HSDPA"
	case Synthetic:
		return "Synthetic"
	default:
		return fmt.Sprintf("DatasetKind(%d)", int(k))
	}
}

// ParseKind returns the dataset kind named fcc, hsdpa or synthetic, in
// any letter case.
func ParseKind(name string) (DatasetKind, error) {
	for k := FCC; k <= Synthetic; k++ {
		if strings.EqualFold(name, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown dataset %q (have fcc, hsdpa, synthetic)", name)
}

// Dataset generates count traces of the given kind and duration,
// deterministically from baseSeed. FCC traces are filtered to mean
// throughput in (0, 3000] kbps as in the paper (the generator already
// targets that band, so the filter rarely rejects).
func Dataset(kind DatasetKind, count int, duration float64, baseSeed int64) []*Trace {
	traces := make([]*Trace, 0, count)
	seed := baseSeed
	for len(traces) < count {
		var t *Trace
		switch kind {
		case FCC:
			t = GenFCC(seed, duration)
			if m := t.Mean(); m <= 0 || m > 3000 {
				seed++
				continue
			}
		case HSDPA:
			t = GenHSDPA(seed, duration)
		case Synthetic:
			var err error
			t, err = GenMarkov(DefaultMarkovConfig(), seed, duration)
			if err != nil {
				panic(err) // default config is statically valid
			}
		default:
			panic(fmt.Sprintf("trace: unknown dataset kind %d", int(kind)))
		}
		traces = append(traces, t)
		seed++
	}
	return traces
}
