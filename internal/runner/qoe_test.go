package runner

import (
	"math"
	"testing"

	"mpcdash/internal/model"
	"mpcdash/internal/trace"
)

// TestSessionQoEIsSumOfGains ties the evaluator to the solvers' per-chunk
// score: for every Catalog algorithm, on an FCC, an HSDPA and a Synthetic
// trace, under all three weight sets and at a B_max small enough that
// Eq. (4)'s wait fires, a session's QoE equals Σ_k Weights.Gain(q_k,
// q_{k−1}, k > 0, rebuffer_k) − µs·Ts to within 1e-9 relative. The
// solvers score chunks through Gain only; SessionResult.QoE sums Eq. (5)
// on its own.
func TestSessionQoEIsSumOfGains(t *testing.T) {
	m := shortManifest(t)
	syn, err := trace.GenMarkov(trace.DefaultMarkovConfig(), 3, m.Duration()+120)
	if err != nil {
		t.Fatal(err)
	}
	traces := []*trace.Trace{trace.GenFCC(5, m.Duration()+120), trace.GenHSDPA(6, m.Duration()+120), syn}
	for _, c := range []struct {
		w         model.Weights
		bufferMax float64
	}{
		{model.Balanced, 30},
		{model.AvoidInstability, 30},
		{model.AvoidRebuffering, 30},
		{model.Balanced, 6},
	} {
		r := New(m)
		r.Weights, r.Sim.BufferMax, r.Normalize = c.w, c.bufferMax, false
		waited := false
		for _, alg := range Catalog(c.w, r.Quality, c.bufferMax, 5) {
			for _, tr := range traces {
				out, err := r.RunSession(alg, tr)
				if err != nil {
					t.Fatal(err)
				}
				res := out.Result
				var sum float64
				for k, ch := range res.Chunks {
					qp := 0.0
					if k > 0 {
						qp = r.Quality(res.Chunks[k-1].Bitrate)
					}
					sum += c.w.Gain(r.Quality(ch.Bitrate), qp, k > 0, ch.Rebuffer)
					waited = waited || ch.Wait > 0
				}
				sum -= c.w.MuS * res.StartupDelay
				if math.Abs(sum-out.QoE) > 1e-9*max(math.Abs(out.QoE), 1) {
					t.Errorf("%v B_max %v: %s on %s: Σ Gain − µs·Ts = %v, QoE %v", c.w, c.bufferMax, alg.Name, tr.Name, sum, out.QoE)
				}
			}
		}
		if c.bufferMax < 10 && !waited {
			t.Errorf("B_max %v: no chunk waited for buffer room; Eq. (4) is untested", c.bufferMax)
		}
	}
}
