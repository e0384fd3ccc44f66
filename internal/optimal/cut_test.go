package optimal

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"mpcdash/internal/model"
	"mpcdash/internal/trace"
)

// uncut returns the uncut kernel's value and plan for tr: the plan's QoE
// is the best final value, -Inf when there is none.
func uncut(s *Solver, tr *trace.Trace) (float64, Plan) {
	p := s.solvePlan(tr, math.Inf(-1))
	return p.QoE, p
}

// samePlan reports whether two plans agree bit for bit: QoE, startup delay
// and every rate.
func samePlan(a, b Plan) bool {
	bits := math.Float64bits
	if bits(a.QoE) != bits(b.QoE) || bits(a.StartupDelay) != bits(b.StartupDelay) || len(a.Rates) != len(b.Rates) {
		return false
	}
	for i := range a.Rates {
		if bits(a.Rates[i]) != bits(b.Rates[i]) {
			return false
		}
	}
	return true
}

// states counts the states every frontier of run(tr, lb) holds, and
// returns run's ok.
func states(s *Solver, tr *trace.Trace, lb float64) (int, bool) {
	n := 0
	_, ok := s.run(tr, lb, 0, func(_ int, f []state) { n += len(f) })
	return n, ok
}

// TestSolveCutMatchesUncut is the bound cut's equivalence oracle: Solve and
// SolvePlan return the uncut kernel's answer bit for bit over seeded traces
// of all three datasets, the three weight sets, two quality functions and
// both the discrete ladder and the dense relaxation. It also checks that
// the cut is taken, and prunes, on these inputs.
func TestSolveCutMatchesUncut(t *testing.T) {
	m := cbrManifest(t, 16)
	var cutStates, uncutStates, fallbacks int
	for _, kind := range []trace.DatasetKind{trace.FCC, trace.HSDPA, trace.Synthetic} {
		for _, tr := range trace.Dataset(kind, 2, m.Duration()+60, 70+int64(kind)) {
			for wi, w := range []model.Weights{model.Balanced, model.AvoidInstability, model.AvoidRebuffering} {
				for qi, q := range []model.QualityFunc{model.QIdentity, model.QLog(350)} {
					for _, levels := range []int{0, 11} {
						s, err := NewSolver(m, w, q, 30)
						if err != nil {
							t.Fatal(err)
						}
						s.DenseLevels = levels
						name := fmt.Sprintf("%s/w%d/q%d/levels%d", tr.Name, wi, qi, levels)
						wantV, wantP := uncut(s, tr)
						if got := s.Solve(tr); math.Float64bits(got) != math.Float64bits(wantV) {
							t.Errorf("%s: Solve = %v, uncut %v", name, got, wantV)
						}
						if got := s.SolvePlan(tr); !samePlan(got, wantP) {
							t.Errorf("%s: SolvePlan = %+v, uncut %+v", name, got, wantP)
						}
						n, ok := states(s, tr, s.incumbent(tr))
						if !ok {
							fallbacks++
						}
						all, _ := states(s, tr, math.Inf(-1))
						cutStates, uncutStates = cutStates+n, uncutStates+all
					}
				}
			}
		}
	}
	t.Logf("cut keeps %d of %d states; %d fallbacks", cutStates, uncutStates, fallbacks)
	if cutStates >= uncutStates/2 {
		t.Errorf("the cut kept %d of %d states; want under half", cutStates, uncutStates)
	}
}

// TestSolveFallsBackUncut forces an incumbent the dynamic program cannot
// reach: one ulp above its optimum, within the rounding margin, so the cut
// run keeps the optimum and ends below the incumbent, and far above, so
// the cut empties a frontier. Both must return the uncut answer, and
// SolvePlan must walk the uncut run's frontiers, not the aborted run's.
func TestSolveFallsBackUncut(t *testing.T) {
	m := cbrManifest(t, 16)
	for _, kind := range []trace.DatasetKind{trace.FCC, trace.HSDPA} {
		tr := trace.Dataset(kind, 1, m.Duration()+60, 80+int64(kind))[0]
		s := newTestSolver(t, m)
		wantV, wantP := uncut(s, tr)
		for i, lb := range []float64{math.Nextafter(wantV, math.Inf(1)), wantV + 1e6} {
			final, ok := s.run(tr, lb, 0, nil)
			if ok || (i == 0) != (len(final) > 0) {
				t.Fatalf("%s: a cut at %v above the optimum %v ended with %d states, ok %v", tr.Name, lb, wantV, len(final), ok)
			}
			if got := value(s.solve(tr, lb, nil)); math.Float64bits(got) != math.Float64bits(wantV) {
				t.Errorf("%s, lb %v: solve = %v, uncut %v", tr.Name, lb, got, wantV)
			}
			if got := s.solvePlan(tr, lb); !samePlan(got, wantP) {
				t.Errorf("%s, lb %v: solvePlan = %+v, uncut %+v", tr.Name, lb, got, wantP)
			}
		}
	}
}

// TestSolveCutGuards: a negative λ or µ lets a chunk gain more than its
// quality, and a NaN weight orders nothing, so each disables the cut: the
// cut entry point keeps exactly the uncut kernel's frontiers. NaN values
// that arise mid-run send the cut run to the uncut fallback. Balanced
// weights on the same input do cut.
func TestSolveCutGuards(t *testing.T) {
	m := cbrManifest(t, 12)
	tr := trace.GenHSDPA(9, m.Duration()+60)
	nan := math.NaN()
	for _, w := range []model.Weights{
		{Lambda: -1, Mu: 3000, MuS: 3000},
		{Lambda: 1, Mu: -1, MuS: 3000},
		{Lambda: nan, Mu: 3000, MuS: 3000},
		{Lambda: 1, Mu: nan, MuS: 3000},
		{Lambda: 1, Mu: 3000, MuS: nan},
	} {
		s, err := NewSolver(m, w, model.QIdentity, 30)
		if err != nil {
			t.Fatal(err)
		}
		lb := s.incumbent(tr)
		if got, want := frontierDigest(s, tr, lb), frontierDigest(s, tr, math.Inf(-1)); got != want {
			t.Errorf("%+v: the cut run's frontiers differ from the uncut kernel's", w)
		}
		wantV, wantP := uncut(s, tr)
		if got := s.Solve(tr); math.Float64bits(got) != math.Float64bits(wantV) {
			t.Errorf("%+v: Solve = %v, uncut %v", w, got, wantV)
		}
		if got := s.SolvePlan(tr); !samePlan(got, wantP) {
			t.Errorf("%+v: SolvePlan = %+v, uncut %+v", w, got, wantP)
		}
	}
	// A startup reward that overflows to +Inf meets a switching penalty
	// that overflows to −Inf: the sum is NaN, so a cut run, forced here
	// at a finite incumbent, cannot vouch for its answer.
	s, err := NewSolver(m, model.Weights{Lambda: 1e308, Mu: 3000, MuS: -1e308}, model.QIdentity, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.run(tr, -1e300, 0, nil); ok {
		t.Error("a cut run that met NaN values vouched for its answer")
	}
	if got, want := frontierDigest(s, tr, -1e300), frontierDigest(s, tr, math.Inf(-1)); got == want {
		t.Error("a cut run that met NaN values recorded only the uncut frontiers")
	}
	if got, want := value(s.solve(tr, -1e300, nil)), s.solvePlan(tr, math.Inf(-1)).QoE; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("NaN values: solve = %v, uncut %v", got, want)
	}
	s = newTestSolver(t, m)
	cut, _ := states(s, tr, s.incumbent(tr))
	if all, _ := states(s, tr, math.Inf(-1)); cut >= all {
		t.Errorf("Balanced: the cut kept %d of %d states", cut, all)
	}
}

// TestSolveConcurrent: one Solver serves concurrent Solve calls, as the
// experiments share one through Runner.Opt, with each call's answer equal
// to a sequential one.
func TestSolveConcurrent(t *testing.T) {
	m := cbrManifest(t, 16)
	s := newTestSolver(t, m)
	trs := trace.Dataset(trace.Synthetic, 4, m.Duration()+60, 90)
	want := make([]float64, len(trs))
	for i, tr := range trs {
		want[i] = s.Solve(tr)
	}
	got := make([]float64, len(trs))
	var wg sync.WaitGroup
	for i, tr := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = s.Solve(tr)
		}()
	}
	wg.Wait()
	for i := range trs {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: concurrent Solve = %v, sequential %v", trs[i].Name, got[i], want[i])
		}
	}
}

// FuzzSolveCutMatchesUncut: on CBR manifests of 3–12 chunks, traces with
// zero-rate stretches, λ and µs of either sign (a negative λ disables the
// cut), µ ≥ 0, and varied bins and rate sets, Solve and SolvePlan return
// the uncut kernel's answer bit for bit.
// Each 2-byte trace sample is a duration of 1–16 quarter seconds and a
// rate of 0–127 × 50 kbps.
func FuzzSolveCutMatchesUncut(f *testing.F) {
	f.Add(uint8(8), int16(1024), uint16(3000), int16(3000), uint8(3), uint8(11), false, []byte{12, 40, 3, 0, 8, 90, 20, 20})
	f.Add(uint8(12), int16(3072), uint16(6000), int16(6000), uint8(1), uint8(0), true, []byte{40, 10, 4, 100, 4, 0})
	f.Add(uint8(5), int16(-1024), uint16(3000), int16(-200), uint8(7), uint8(4), false, []byte{2, 60})
	f.Add(uint8(3), int16(0), uint16(0), int16(0), uint8(0), uint8(0), false, []byte{16, 0, 1, 127})
	f.Fuzz(func(t *testing.T, chunks uint8, lambda int16, mu uint16, mus int16, bins, levels uint8, logQ bool, samples []byte) {
		m, err := model.NewCBRManifest(model.EnvivioLadder(), 3+int(chunks%10), 4)
		if err != nil {
			t.Fatal(err)
		}
		var tsamples []trace.Sample
		for i := 0; i+1 < len(samples) && len(tsamples) < 32; i += 2 {
			tsamples = append(tsamples, trace.Sample{Duration: float64(1+samples[i]%16) / 4, Kbps: float64(samples[i+1]%128) * 50})
		}
		if len(tsamples) == 0 {
			return
		}
		tr, err := trace.New("fuzz", tsamples)
		if err != nil {
			t.Fatal(err)
		}
		q := model.QIdentity
		if logQ {
			q = model.QLog(350)
		}
		w := model.Weights{Lambda: float64(lambda) / 1024, Mu: float64(mu), MuS: float64(mus)}
		s, err := NewSolver(m, w, q, 12)
		if err != nil {
			t.Fatal(err)
		}
		s.TimeBin = float64(1+bins%8) / 4
		s.BufferBin = float64(1+bins/8%8) / 4
		s.DenseLevels = int(levels % 16)
		wantV, wantP := uncut(s, tr)
		if got := s.Solve(tr); math.Float64bits(got) != math.Float64bits(wantV) {
			t.Errorf("Solve = %v, uncut %v", got, wantV)
		}
		if got := s.SolvePlan(tr); !samePlan(got, wantP) {
			t.Errorf("SolvePlan = %+v, uncut %+v", got, wantP)
		}
	})
}
