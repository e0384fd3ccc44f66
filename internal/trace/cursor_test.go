package trace

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceDownloadTime is the direct integration Cursor replaced: wrap,
// search the start segment, subtract whole passes, then bisect the
// cumulative volume from zero for the finish segment. Cursor must agree
// with it bit for bit.
func referenceDownloadTime(t *Trace, start, kilobits float64) float64 {
	if kilobits <= 0 {
		return 0
	}
	perPass := t.cumKb[len(t.Samples)]
	if perPass <= 0 {
		return math.Inf(1)
	}
	total := t.Duration()
	pos := t.wrap(start)
	var elapsed float64
	i := t.segmentAt(pos)
	passRest := perPass - t.cumKb[i] - (pos-t.cumDur[i])*t.Samples[i].Kbps
	if kilobits > passRest {
		kilobits -= passRest
		elapsed += total - pos
		pos = 0
		passes := math.Floor(kilobits / perPass)
		if kilobits == passes*perPass {
			passes--
		}
		if passes > 0 {
			elapsed += passes * total
			kilobits -= passes * perPass
		}
	}
	target := t.volumeTo(pos) + kilobits
	j := sort.Search(len(t.cumKb), func(k int) bool { return t.cumKb[k] >= target })
	if j == 0 {
		j = 1
	}
	seg := j - 1
	if seg >= len(t.Samples) {
		seg = len(t.Samples) - 1
	}
	rate := t.Samples[seg].Kbps
	if rate <= 0 {
		return elapsed + t.cumDur[seg] - pos
	}
	finish := t.cumDur[seg] + (target-t.cumKb[seg])/rate
	return elapsed + finish - pos
}

// randomTrace draws n segments; about one in four has zero rate when
// zeros is set.
func randomTrace(t *testing.T, rng *rand.Rand, n int, zeros bool) *Trace {
	samples := make([]Sample, n)
	for i := range samples {
		samples[i] = Sample{Duration: 0.1 + rng.Float64()*5, Kbps: rng.Float64() * 3000}
		if zeros && rng.Intn(4) == 0 {
			samples[i].Kbps = 0
		}
	}
	return mustTrace(t, "random", samples)
}

// checkCursor compares one cursor's ascending finish times, and the
// one-shot DownloadTime, against the reference.
func checkCursor(t *testing.T, tr *Trace, start float64, sizes []float64) {
	t.Helper()
	c := tr.At(start)
	for _, kb := range sizes {
		want := referenceDownloadTime(tr, start, kb)
		if got := c.DownloadTime(kb); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: At(%v).DownloadTime(%v) = %v, reference %v", tr.Name, start, kb, got, want)
		}
		if got := tr.DownloadTime(start, kb); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: DownloadTime(%v, %v) = %v, reference %v", tr.Name, start, kb, got, want)
		}
	}
}

// TestCursorMatchesReference: over seeded random traces with and without
// zero-rate segments, every cursor finish time equals the reference
// integration bit for bit, from random starts, segment-boundary starts,
// negative starts and starts several passes in, for sizes from a sliver
// to several passes, including sizes that land exactly on a pass boundary.
func TestCursorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		tr := randomTrace(t, rng, 1+rng.Intn(40), trial%2 == 0)
		perPass := tr.cumKb[len(tr.Samples)]
		starts := []float64{0, -rng.Float64() * tr.Duration(), rng.Float64() * 4 * tr.Duration()}
		for i := 0; i < 5; i++ {
			starts = append(starts, rng.Float64()*tr.Duration())
		}
		starts = append(starts, -1e-300, math.Nextafter(tr.Duration(), 0), math.Nextafter(3*tr.Duration(), 0))
		for i := range tr.cumDur {
			starts = append(starts, tr.cumDur[i], tr.cumDur[i]+2*tr.Duration())
		}
		for _, start := range starts {
			// Ascending sizes, as the offline optimum's rate ladder asks.
			sizes := []float64{-1, 0, 1e-12, 1}
			for kb := 10.0; kb < 4*perPass+10; kb *= 1.7 {
				sizes = append(sizes, kb)
			}
			c := tr.At(start)
			for m := 0.0; m <= 3; m++ {
				sizes = append(sizes, m*perPass, c.passRest+m*perPass)
			}
			sort.Float64s(sizes)
			checkCursor(t, tr, start, sizes)
		}
	}
}

// TestCursorEdgeCases covers the branches random draws rarely hit.
func TestCursorEdgeCases(t *testing.T) {
	tr := mustTrace(t, "edges", []Sample{{2, 100}, {1, 0}, {0.5, 400}, {3, 0}})
	perPass := tr.cumKb[len(tr.Samples)] // 400 kbits per 6.5 s pass
	// Starts on segment boundaries, past the end, negative, and just
	// below a pass end, where pos/Duration may round to 1 (and a tiny
	// negative start wraps to exactly Duration).
	starts := []float64{0, 1, 2, 2.5, 3, 3.25, 3.5, 5, 6.5, 13, -0.5, -6.5, -1e-300, math.Nextafter(6.5, 0), math.Nextafter(13, 0)}
	for _, start := range starts {
		checkCursor(t, tr, start, []float64{math.NaN(), -5, 0, 50, 200, 400, perPass, 2 * perPass, 3*perPass + 1, 10 * perPass, math.Inf(1)})
	}
	// Exact pass-boundary landing: from the pass start, k whole passes
	// finish at the last nonzero segment of the k-th pass.
	for k := 1.0; k <= 4; k++ {
		got := tr.At(0).DownloadTime(k * perPass)
		if want := (k-1)*tr.Duration() + 3.5; got != want { // exact: binary fractions
			t.Errorf("At(0).DownloadTime(%v passes) = %v, want %v", k, got, want)
		}
	}
	dead := mustTrace(t, "dead", []Sample{{5, 0}, {2, 0}})
	if got := dead.At(3).DownloadTime(1); !math.IsInf(got, 1) {
		t.Errorf("dead trace: DownloadTime = %v, want +Inf", got)
	}
	if got := dead.At(3).DownloadTime(0); got != 0 {
		t.Errorf("dead trace, zero size: DownloadTime = %v, want 0", got)
	}
	if got := tr.At(1).DownloadTime(-3); got != 0 {
		t.Errorf("negative size: DownloadTime = %v, want 0", got)
	}
}
