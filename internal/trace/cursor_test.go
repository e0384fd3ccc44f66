package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"mpcdash/internal/fuzzcorpus"
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
	// More whole passes than a float64 counts: the time is still the
	// size over the mean rate.
	short := mustTrace(t, "short", []Sample{{1e-307, 1}})
	if got := short.At(0).DownloadTime(50); got != 50 {
		t.Errorf("1e-307 s pass at 1 kbps: DownloadTime(50) = %v, want 50", got)
	}
}

// checkDownloadTimes requires DownloadTimes over sizes to equal the
// cursor's DownloadTime of each size, bit for bit.
func checkDownloadTimes(t testing.TB, tr *Trace, start float64, sizes []float64) {
	t.Helper()
	c := tr.At(start)
	dst := make([]float64, len(sizes))
	c.DownloadTimes(sizes, dst)
	for i, kb := range sizes {
		if want := c.DownloadTime(kb); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("%s: At(%v).DownloadTimes: size %d (%v) took %v, DownloadTime %v", tr.Name, start, i, kb, dst[i], want)
		}
	}
}

// TestDownloadTimesMatchesDownloadTime: on FCC- and HSDPA-like traces and
// traces with zero-rate stretches, from pass starts, segment boundaries
// and random offsets, DownloadTimes equals DownloadTime bit for bit for
// ascending ladders, ladders wrapping the pass once or more, sizes landing
// exactly on segment boundaries, repeats, sizes of zero or less, NaN and
// descending lists.
func TestDownloadTimesMatchesDownloadTime(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	traces := []*Trace{
		GenFCC(1, 400), GenHSDPA(2, 400),
		mustTrace(t, "wrap", []Sample{{2, 900}, {1.5, 0}, {0.5, 4000}, {3, 0}}),
		mustTrace(t, "edges", []Sample{{2, 100}, {1, 0}, {0.5, 400}, {3, 0}}),
	}
	for i := 0; i < 20; i++ {
		traces = append(traces, randomTrace(t, rng, 1+rng.Intn(30), true))
	}
	for _, tr := range traces {
		perPass := tr.cumKb[len(tr.Samples)]
		starts := []float64{0, tr.Duration(), -rng.Float64() * tr.Duration(), math.Nextafter(tr.Duration(), 0)}
		for i := range tr.cumDur {
			starts = append(starts, tr.cumDur[i])
		}
		for i := 0; i < 8; i++ {
			starts = append(starts, rng.Float64()*3*tr.Duration())
		}
		for _, start := range starts {
			c := tr.At(start)
			// The rate ladder of the offline optimum: 11 uniform rates
			// over 4 s chunks.
			var ladder []float64
			for r := 350.0; r <= 4300; r += 395 {
				ladder = append(ladder, 4*r)
			}
			// Sizes reaching each later segment boundary exactly, then
			// the rest of the pass, then whole passes beyond it.
			var boundaries []float64
			for j := c.seg + 1; j < len(tr.cumKb); j++ {
				boundaries = append(boundaries, tr.cumKb[j]-c.base)
			}
			boundaries = append(boundaries, c.passRest, c.passRest+perPass, c.passRest+2.5*perPass)
			sort.Float64s(boundaries)
			var spread []float64
			for kb := perPass / 50; kb < 4*perPass; kb *= 1.3 {
				spread = append(spread, kb)
			}
			descending := slices.Clone(spread)
			slices.Reverse(descending)
			for _, sizes := range [][]float64{
				ladder, boundaries, spread, descending,
				{-1, 0, 1e-12, 0, 5, 5, 5, 3, 7, math.NaN(), 9, 9},
				{c.passRest, c.passRest, math.Nextafter(c.passRest, 0), math.Nextafter(c.passRest, math.Inf(1))},
				{math.Inf(1), 1},
				nil,
			} {
				checkDownloadTimes(t, tr, start, sizes)
			}
		}
	}
	dead := mustTrace(t, "dead", []Sample{{5, 0}, {2, 0}})
	checkDownloadTimes(t, dead, 3, []float64{-1, 0, 1, 2})
}

// fuzzSample is one FuzzDownloadTimes segment: a duration of (1+dur)/64 s
// scaled by 2^(8·exp), from about 1e-310 s to past 1e308 s, and a rate in
// kbps.
type fuzzSample struct {
	dur  uint16
	exp  int8
	kbps uint16
}

// downloadTimesSeed encodes one FuzzDownloadTimes input: the start and
// the size step as float64 bits, the sample count, each sample as its
// duration (uint16), exponent (int8) and rate (uint16), then the sizes as
// int16 multiples of step.
func downloadTimesSeed(start, step float64, samples []fuzzSample, sizes []int16) []byte {
	b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(start))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(step))
	b = append(b, byte(len(samples)))
	for _, s := range samples {
		b = binary.LittleEndian.AppendUint16(b, s.dur)
		b = append(b, byte(s.exp))
		b = binary.LittleEndian.AppendUint16(b, s.kbps)
	}
	for _, kb := range sizes {
		b = binary.LittleEndian.AppendUint16(b, uint16(kb))
	}
	return b
}

// downloadTimesSeeds is the committed seed corpus for FuzzDownloadTimes.
func downloadTimesSeeds() [][]byte {
	wrap := []fuzzSample{{127, 0, 900}, {95, 0, 0}, {31, 0, 4000}, {191, 0, 0}} // 2 s, 1.5 s, 0.5 s, 3 s
	return [][]byte{
		downloadTimesSeed(3.5, 200, wrap, []int16{1, 2, 4, 8, 16, 32, 64}),                 // ascending, wrapping
		downloadTimesSeed(0, 450, wrap, []int16{1, 2, 2, 8, 8, 3, 0, -1}),                  // boundaries, repeats, descending
		downloadTimesSeed(-1, 1000, []fuzzSample{{63, 0, 1000}}, []int16{-1, 0, 1}),        // one segment
		downloadTimesSeed(2, 1, []fuzzSample{{319, 0, 0}, {127, 0, 0}}, []int16{0, 1}),     // dead trace
		downloadTimesSeed(math.NaN(), math.Inf(1), wrap, []int16{1, -1, 0}),                // NaN start, infinite sizes
		downloadTimesSeed(0, 50, []fuzzSample{{0, -127, 1}}, []int16{1, 2}),                // 2^-1022 s pass: more passes than a float64 counts
		downloadTimesSeed(1, 1e5, []fuzzSample{{15, 125, 1}, {0, -127, 0}}, []int16{1, 3}), // a 4e300 s segment beside a 2^-1022 s one
	}
}

// FuzzDownloadTimes builds a trace, a start and a size list from fuzzed
// bytes (see downloadTimesSeed) and requires DownloadTimes to equal
// DownloadTime bit for bit, +Inf and NaN included. Traces arrive as
// untrusted files, so no shape of one may split the two. From a finite
// start, a transfer takes at most the rest of the pass, its size over the
// mean rate and one more pass, so it must also finish wherever that sum
// is far below the float64 range.
func FuzzDownloadTimes(f *testing.F) {
	for _, s := range downloadTimesSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 17 {
			return
		}
		start := math.Float64frombits(binary.LittleEndian.Uint64(data))
		step := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
		n, data := int(data[16]), data[17:]
		if len(data) < 5*n {
			return
		}
		samples := make([]Sample, n)
		for i := range samples {
			mant := float64(1 + int(binary.LittleEndian.Uint16(data[5*i:])))
			samples[i] = Sample{
				Duration: math.Ldexp(mant, 8*int(int8(data[5*i+2]))-6),
				Kbps:     float64(binary.LittleEndian.Uint16(data[5*i+3:])),
			}
		}
		tr, err := New("fuzz", samples)
		if err != nil {
			return // no samples, or a duration that overflows
		}
		var sizes []float64
		for data = data[5*n:]; len(data) >= 2; data = data[2:] {
			sizes = append(sizes, float64(int16(binary.LittleEndian.Uint16(data)))*step)
		}
		checkDownloadTimes(t, tr, start, sizes)
		mean := tr.Mean()
		if !(mean > 0) || math.IsNaN(start) || math.IsInf(start, 0) {
			return
		}
		c := tr.At(start)
		for _, kb := range sizes {
			if !(kb > 0 && kb/mean+2*tr.Duration() < 1e307) {
				continue
			}
			if dl := c.DownloadTime(kb); math.IsInf(dl, 0) || math.IsNaN(dl) {
				t.Fatalf("At(%v).DownloadTime(%v) = %v on a %v s trace of mean rate %v", start, kb, dl, tr.Duration(), mean)
			}
		}
	})
}

// traceReadSeeds is the committed seed corpus for FuzzTraceRead: a plain
// trace, a NaN and an infinite duration, two durations whose sum
// overflows, a rate so low that 50 kilobits take longer than a float64
// holds, and a pass so short that 50 kilobits take more passes than a
// float64 counts, though only 50 s.
func traceReadSeeds() [][]byte {
	return [][]byte{
		[]byte("# trace ok\n1 1000\n0.5 0\n2 350.5\n"),
		[]byte("NaN 100\n"),
		[]byte("+Inf 0\n"),
		[]byte("1e308 1\n1e308 1\n"),
		[]byte("1 1e-320\n"),
		[]byte("1e-307 1\n"),
	}
}

// FuzzTraceRead: trace files are untrusted input, so Read either errors or
// returns a trace whose Duration and Mean are finite and whose
// DownloadTime(0, 50) is not NaN. That download is +Inf only when the
// trace never delivers 50 kilobits in a float64 count of seconds: an
// all-zero trace, or one so slow that 50/Mean itself overflows.
func FuzzTraceRead(f *testing.F) {
	for _, s := range traceReadSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		dur, mean := tr.Duration(), tr.Mean()
		if math.IsNaN(dur) || math.IsInf(dur, 0) || math.IsNaN(mean) || math.IsInf(mean, 0) {
			t.Fatalf("Duration %v, Mean %v: want both finite", dur, mean)
		}
		dl := tr.DownloadTime(0, 50)
		if math.IsNaN(dl) {
			t.Fatalf("DownloadTime(0, 50) = NaN (Duration %v, Mean %v)", dur, mean)
		}
		if math.IsInf(dl, 0) && mean > 0 && !math.IsInf(50/mean, 1) {
			t.Fatalf("DownloadTime(0, 50) = %v on a trace with mean rate %v", dl, mean)
		}
	})
}

// TestFuzzCorpusCommitted keeps testdata/fuzz/FuzzDownloadTimes and
// testdata/fuzz/FuzzTraceRead in sync with their seed lists.
func TestFuzzCorpusCommitted(t *testing.T) {
	for target, seeds := range map[string][][]byte{
		"FuzzDownloadTimes": downloadTimesSeeds(),
		"FuzzTraceRead":     traceReadSeeds(),
	} {
		problems, err := fuzzcorpus.Sync(filepath.Join("testdata", "fuzz", target), seeds)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range problems {
			t.Errorf("%s: %s", target, p)
		}
	}
}
