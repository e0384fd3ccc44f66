// Package mdp implements the Markov-decision-process control strawman the
// paper weighs against MPC (Sec 4.1) and defers to future work (Sec 8):
// model throughput as a finite Markov chain, discretize the player state,
// and compute an optimal policy by value iteration. The comparison is
// instructive — MDP control is optimal exactly when throughput really is
// Markov (the Synthetic dataset), and degrades when that assumption breaks
// (the measured-like traces), which is the paper's stated reason for
// preferring MPC.
package mdp

import (
	"fmt"
	"math"

	"mpcdash/internal/model"
)

// ThroughputChain is a finite-state Markov model of the channel: state i
// means "the next chunk downloads at about Rates[i] kbps".
type ThroughputChain struct {
	Rates      []float64   // representative kbps per state, ascending
	Transition [][]float64 // row-stochastic transition matrix
}

// Validate reports structural errors.
func (c *ThroughputChain) Validate() error {
	n := len(c.Rates)
	if n == 0 {
		return fmt.Errorf("mdp: chain has no states")
	}
	if len(c.Transition) != n {
		return fmt.Errorf("mdp: %d rates but %d transition rows", n, len(c.Transition))
	}
	for i, r := range c.Rates {
		if r <= 0 {
			return fmt.Errorf("mdp: non-positive rate %v in state %d", r, i)
		}
		if i > 0 && r <= c.Rates[i-1] {
			return fmt.Errorf("mdp: rates not ascending at state %d", i)
		}
	}
	for i, row := range c.Transition {
		if len(row) != n {
			return fmt.Errorf("mdp: transition row %d has %d entries, want %d", i, len(row), n)
		}
		var sum float64
		for _, p := range row {
			if p < 0 {
				return fmt.Errorf("mdp: negative probability in row %d", i)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("mdp: transition row %d sums to %v", i, sum)
		}
	}
	return nil
}

// StateOf quantizes an observed throughput to the nearest chain state.
func (c *ThroughputChain) StateOf(kbps float64) int {
	best, bestDist := 0, math.Inf(1)
	for i, r := range c.Rates {
		if d := math.Abs(r - kbps); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// LearnChain fits a Markov chain to a sequence of per-chunk throughput
// observations: rates are quantized onto `states` log-spaced levels between
// the observed min and max, and transitions are counted with add-one
// smoothing. This is the paper's "formulate the throughput transition as a
// Markov process and learn it from history".
func LearnChain(observations []float64, states int) (*ThroughputChain, error) {
	if states < 2 {
		return nil, fmt.Errorf("mdp: need at least 2 states, got %d", states)
	}
	if len(observations) < 2 {
		return nil, fmt.Errorf("mdp: need at least 2 observations, got %d", len(observations))
	}
	lo, hi := math.Inf(1), 0.0
	for _, o := range observations {
		if o <= 0 {
			return nil, fmt.Errorf("mdp: non-positive observation %v", o)
		}
		lo = math.Min(lo, o)
		hi = math.Max(hi, o)
	}
	if hi <= lo {
		hi = lo * 1.01 // degenerate constant series
	}
	chain := &ThroughputChain{Rates: make([]float64, states)}
	logLo, logHi := math.Log(lo), math.Log(hi)
	for i := range chain.Rates {
		frac := (float64(i) + 0.5) / float64(states)
		chain.Rates[i] = math.Exp(logLo + frac*(logHi-logLo))
	}
	counts := make([][]float64, states)
	for i := range counts {
		counts[i] = make([]float64, states)
		for j := range counts[i] {
			counts[i][j] = 1 // Laplace smoothing
		}
	}
	prev := chain.StateOf(observations[0])
	for _, o := range observations[1:] {
		cur := chain.StateOf(o)
		counts[prev][cur]++
		prev = cur
	}
	chain.Transition = make([][]float64, states)
	for i, row := range counts {
		var sum float64
		for _, c := range row {
			sum += c
		}
		norm := make([]float64, states)
		for j, c := range row {
			norm[j] = c / sum
		}
		chain.Transition[i] = norm
	}
	return chain, nil
}

// Policy is a solved MDP policy: the optimal level for each discretized
// (buffer bin, throughput state, previous level) triple.
type Policy struct {
	Chain      *ThroughputChain
	BufferBins int
	BufferMax  float64
	Levels     int
	actions    []uint8 // bufferBin-major, then chain state, then prev level
}

// index computes the flat offset of a policy cell.
func (p *Policy) index(bBin, cState, prev int) int {
	return (bBin*len(p.Chain.Rates)+cState)*p.Levels + prev
}

// Action returns the policy's level for a player state.
func (p *Policy) Action(buffer float64, throughputKbps float64, prev int) int {
	bBin := int(buffer / p.BufferMax * float64(p.BufferBins))
	if bBin < 0 {
		bBin = 0
	}
	if bBin >= p.BufferBins {
		bBin = p.BufferBins - 1
	}
	if prev < 0 {
		prev = 0
	}
	if prev >= p.Levels {
		prev = p.Levels - 1
	}
	return int(p.actions[p.index(bBin, p.Chain.StateOf(throughputKbps), prev)])
}

// Solve computes the optimal stationary policy by value iteration with
// discount gamma, maximizing the expected per-chunk QoE gain of Eq. (5)
// under the chain's dynamics.
func Solve(m *model.Manifest, w model.Weights, q model.QualityFunc, chain *ThroughputChain, bufferMax float64, bufferBins int, gamma float64, iterations int) (*Policy, error) {
	if err := chain.Validate(); err != nil {
		return nil, err
	}
	if bufferMax <= 0 || bufferBins < 2 {
		return nil, fmt.Errorf("mdp: need positive BufferMax and ≥2 buffer bins, got %v/%d", bufferMax, bufferBins)
	}
	if gamma <= 0 || gamma >= 1 {
		return nil, fmt.Errorf("mdp: discount must be in (0,1), got %v", gamma)
	}
	if iterations <= 0 {
		iterations = 200
	}
	if q == nil {
		q = model.QIdentity
	}
	nC := len(chain.Rates)
	levels := m.Levels()
	p := &Policy{
		Chain:      chain,
		BufferBins: bufferBins,
		BufferMax:  bufferMax,
		Levels:     levels,
		actions:    make([]uint8, bufferBins*nC*levels),
	}
	bufOf := func(bin int) float64 {
		return (float64(bin) + 0.5) * bufferMax / float64(bufferBins)
	}
	binOf := func(buf float64) int {
		bin := int(buf / bufferMax * float64(bufferBins))
		if bin < 0 {
			return 0
		}
		if bin >= bufferBins {
			return bufferBins - 1
		}
		return bin
	}
	// Chunk sizes use the CBR nominal (multiplier 1), as the chain has no
	// notion of which chunk is next.
	size := func(lvl int) float64 { return m.ChunkDuration * m.Ladder[lvl] }

	value := make([]float64, bufferBins*nC*levels)
	next := make([]float64, len(value))
	for iter := 0; iter < iterations; iter++ {
		var delta float64
		for bBin := 0; bBin < bufferBins; bBin++ {
			buf := bufOf(bBin)
			for cs := 0; cs < nC; cs++ {
				rate := chain.Rates[cs]
				for prev := 0; prev < levels; prev++ {
					bestV := math.Inf(-1)
					bestA := 0
					for a := 0; a < levels; a++ {
						dl := size(a) / rate
						rebuffer, _, nb := model.Step(buf, dl, m.ChunkDuration, bufferMax)
						gain := w.Gain(q(m.Ladder[a]), q(m.Ladder[prev]), true, rebuffer)
						var future float64
						nBin := binOf(nb)
						for ncs, prob := range chain.Transition[cs] {
							future += prob * value[p.index(nBin, ncs, a)]
						}
						if v := gain + gamma*future; v > bestV {
							bestV, bestA = v, a
						}
					}
					idx := p.index(bBin, cs, prev)
					next[idx] = bestV
					p.actions[idx] = uint8(bestA)
					if d := math.Abs(bestV - value[idx]); d > delta {
						delta = d
					}
				}
			}
		}
		value, next = next, value
		if delta < 1e-6 {
			break
		}
	}
	return p, nil
}
