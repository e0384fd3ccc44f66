// Package trace provides network-throughput traces: a piecewise-constant
// rate function C_t with exact integration (download-time computation), the
// three dataset generators of Sec 7.1.1 (FCC-like broadband, HSDPA-like
// mobile, and the hidden-Markov synthetic model), a text serialization
// format, and per-trace statistics.
package trace

import (
	"fmt"
	"math"
	"sort"
)

// Sample is one constant-rate segment of a trace.
type Sample struct {
	Duration float64 // seconds the rate holds
	Kbps     float64 // throughput during the segment
}

// Trace is a piecewise-constant throughput function C_t. Beyond its last
// sample the trace wraps around to its beginning, which mirrors the paper's
// practice of concatenating measurements to match the video length.
// Time and volume integrals are precomputed so download-time and
// average-rate queries cost O(log n); Trace is immutable after New and
// safe for concurrent readers.
type Trace struct {
	Name    string
	Samples []Sample

	cumDur []float64 // cumDur[i] = duration of samples[0:i]; len n+1
	cumKb  []float64 // cumKb[i] = kilobits deliverable over samples[0:i]
}

// New constructs a trace from samples, validating that every segment has
// a positive finite duration and a non-negative finite rate, and that the
// trace's total duration and volume stay finite.
func New(name string, samples []Sample) (*Trace, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("trace %q: no samples", name)
	}
	t := &Trace{
		Name:    name,
		Samples: samples,
		cumDur:  make([]float64, len(samples)+1),
		cumKb:   make([]float64, len(samples)+1),
	}
	for i, s := range samples {
		if !(s.Duration > 0) || math.IsInf(s.Duration, 1) {
			return nil, fmt.Errorf("trace %q: sample %d has invalid duration %v", name, i, s.Duration)
		}
		if s.Kbps < 0 || math.IsNaN(s.Kbps) || math.IsInf(s.Kbps, 0) {
			return nil, fmt.Errorf("trace %q: sample %d has invalid rate %v", name, i, s.Kbps)
		}
		t.cumDur[i+1] = t.cumDur[i] + s.Duration
		t.cumKb[i+1] = t.cumKb[i] + s.Duration*s.Kbps
		if math.IsInf(t.cumDur[i+1], 1) || math.IsInf(t.cumKb[i+1], 1) {
			return nil, fmt.Errorf("trace %q: samples 0..%d overflow the total duration or volume", name, i)
		}
	}
	return t, nil
}

// FromRates builds a trace with a uniform sampling interval, the shape of
// both the FCC (5 s) and HSDPA (1 s) datasets.
func FromRates(name string, interval float64, kbps []float64) (*Trace, error) {
	samples := make([]Sample, len(kbps))
	for i, r := range kbps {
		samples[i] = Sample{Duration: interval, Kbps: r}
	}
	return New(name, samples)
}

// Duration returns the length of one pass of the trace in seconds.
func (t *Trace) Duration() float64 { return t.cumDur[len(t.Samples)] }

// wrap maps an arbitrary time offset into [0, Duration).
func (t *Trace) wrap(sec float64) float64 {
	total := t.Duration()
	sec = math.Mod(sec, total)
	if sec < 0 {
		sec += total
	}
	return sec
}

// segmentAt returns the index of the segment containing the wrapped offset.
func (t *Trace) segmentAt(pos float64) int {
	// First i with cumDur[i] > pos; the segment is i-1.
	i := sort.SearchFloat64s(t.cumDur, pos)
	if i < len(t.cumDur) && t.cumDur[i] == pos { //lint:allow floateq exact boundary hit after binary search on cumulative durations
		i++
	}
	if i <= 0 {
		return 0
	}
	if i > len(t.Samples) {
		return len(t.Samples) - 1
	}
	return i - 1
}

// RateAt returns C_t at time offset sec (wrapping past the end).
func (t *Trace) RateAt(sec float64) float64 {
	return t.Samples[t.segmentAt(t.wrap(sec))].Kbps
}

// volumeTo returns the kilobits deliverable in [0, sec], wrapping.
func (t *Trace) volumeTo(sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	total := t.Duration()
	passes := math.Floor(sec / total)
	pos := sec - passes*total
	return passes*t.cumKb[len(t.Samples)] + t.volumeIn(t.segmentAt(pos), pos)
}

// volumeIn returns the kilobits deliverable in [0, pos] of one pass, where
// segment i contains pos.
func (t *Trace) volumeIn(i int, pos float64) float64 {
	return t.cumKb[i] + (pos-t.cumDur[i])*t.Samples[i].Kbps
}

// Cursor is a trace position resolved once for any number of transfers
// that start there: the wrapped offset, its segment, the capacity left in
// the pass and the volume delivered before it. Get one from Trace.At.
type Cursor struct {
	t        *Trace
	pos      float64 // start wrapped into [0, Duration)
	seg      int     // segment containing pos
	passRest float64 // kilobits deliverable from pos to the end of the pass
	base     float64 // kilobits deliverable from the pass start to pos
}

// At resolves the trace position of time offset start (wrapping).
func (t *Trace) At(start float64) Cursor {
	pos := t.wrap(start)
	i := t.segmentAt(pos)
	c := Cursor{
		t:        t,
		pos:      pos,
		seg:      i,
		passRest: t.cumKb[len(t.Samples)] - t.cumKb[i] - (pos-t.cumDur[i])*t.Samples[i].Kbps,
	}
	// volumeTo(pos) without its second segment search when pos lies in
	// the first pass, which it does unless the division rounds up to 1.
	if pos > 0 && pos/t.Duration() < 1 {
		c.base = t.volumeIn(i, pos)
	} else {
		c.base = t.volumeTo(pos)
	}
	return c
}

// DownloadTime returns how long a transfer of size kilobits starting at time
// start takes, integrating the piecewise-constant rate exactly (Eq. 2 solved
// for the finish time). Zero-rate segments are simply waited out. A transfer
// that would never finish (all-zero trace) returns +Inf.
func (t *Trace) DownloadTime(start, kilobits float64) float64 {
	return t.At(start).DownloadTime(kilobits)
}

// DownloadTime is Trace.DownloadTime from the cursor's position.
func (c Cursor) DownloadTime(kilobits float64) float64 {
	if kilobits <= 0 {
		return 0
	}
	t := c.t
	perPass := t.cumKb[len(t.Samples)]
	if perPass <= 0 {
		return math.Inf(1)
	}
	pos, seg, base := c.pos, c.seg, c.base
	var elapsed float64
	if kilobits > c.passRest {
		// Finish the current pass, then whole additional passes.
		kilobits -= c.passRest
		elapsed += t.Duration() - pos
		pos, seg, base = 0, 0, 0
		passes := math.Floor(kilobits / perPass)
		if math.IsInf(passes, 1) {
			// More passes than a float64 counts: time the rest at the
			// pass's mean rate, finite wherever the answer is.
			return elapsed + kilobits/t.Mean()
		}
		if kilobits == passes*perPass { //lint:allow floateq exact pass-boundary landing; both sides derive from the same floor()
			passes-- // land exactly at a pass boundary: finish within the last one
		}
		if passes > 0 {
			elapsed += passes * t.Duration()
			kilobits -= passes * perPass
		}
	}
	// Finish within the pass starting at pos, in the segment before the
	// first boundary whose cumulative volume reaches the target. The
	// boundaries up to seg hold at most base, so a target above base skips
	// them.
	target := base + kilobits
	lo := 0
	if target > base {
		lo = seg + 1
	}
	j := lo + sort.Search(len(t.cumKb)-lo, func(k int) bool { return t.cumKb[lo+k] >= target })
	return t.finish(j, target, elapsed, pos)
}

// DownloadTimes sets dst[i] to DownloadTime(sizes[i]) for every size, bit
// for bit; dst must be at least as long as sizes. Within the pass, a size
// no smaller than the last one resumes the finish-segment search from that
// one's answer, so an ascending rate ladder costs one walk of the trace.
// Any other size (zero or less, wrapping the pass, smaller than the last,
// or NaN) goes through DownloadTime.
func (c Cursor) DownloadTimes(sizes, dst []float64) {
	t := c.t
	j, last := 0, 0.0
	for i, kb := range sizes {
		if !(kb > 0 && kb <= c.passRest && kb >= last) {
			dst[i] = c.DownloadTime(kb)
			continue
		}
		// The first boundary reaching a target is non-decreasing in the
		// target, so the last answer bounds this one from below.
		target := c.base + kb
		if target > c.base {
			j = max(j, c.seg+1)
		}
		j = t.seekKb(j, target)
		last = kb
		dst[i] = t.finish(j, target, 0, c.pos)
	}
}

// seekKb returns the first index from lo whose cumulative volume reaches
// target, or len(cumKb): a galloping search that costs the logarithm of
// the distance walked.
func (t *Trace) seekKb(lo int, target float64) int {
	hi, step := lo, 1
	for hi < len(t.cumKb) && !(t.cumKb[hi] >= target) {
		lo = hi + 1
		hi += step
		step *= 2
	}
	hi = min(hi, len(t.cumKb))
	return lo + sort.Search(hi-lo, func(k int) bool { return t.cumKb[lo+k] >= target })
}

// finish returns the download time of a transfer that started at pass
// offset pos, elapsed seconds before the current pass began, and completes
// target kilobits into this pass, where j is the first boundary whose
// cumulative volume reaches target.
func (t *Trace) finish(j int, target, elapsed, pos float64) float64 {
	if j == 0 {
		j = 1
	}
	seg := j - 1
	if seg >= len(t.Samples) {
		seg = len(t.Samples) - 1
	}
	rate := t.Samples[seg].Kbps
	if rate <= 0 {
		// target falls exactly on a boundary followed by zero-rate segments;
		// the transfer completed at the boundary.
		return elapsed + t.cumDur[seg] - pos
	}
	finish := t.cumDur[seg] + (target-t.cumKb[seg])/rate
	return elapsed + finish - pos
}

// AverageRate returns the mean throughput over [start, start+dur], the C_k
// of Eq. (2) for a download occupying that window.
func (t *Trace) AverageRate(start, dur float64) float64 {
	if dur <= 0 {
		return t.RateAt(start)
	}
	pos := t.wrap(start)
	return (t.volumeTo(pos+dur) - t.volumeTo(pos)) / dur
}

// Mean returns the duration-weighted mean throughput of one pass.
func (t *Trace) Mean() float64 {
	return t.cumKb[len(t.Samples)] / t.Duration()
}

// Stddev returns the duration-weighted standard deviation of the rate.
func (t *Trace) Stddev() float64 {
	mean := t.Mean()
	var sum float64
	for _, s := range t.Samples {
		d := s.Kbps - mean
		sum += d * d * s.Duration
	}
	return math.Sqrt(sum / t.Duration())
}

// MinRate returns the lowest segment rate.
func (t *Trace) MinRate() float64 {
	min := math.Inf(1)
	for _, s := range t.Samples {
		if s.Kbps < min {
			min = s.Kbps
		}
	}
	return min
}

// MaxRate returns the highest segment rate.
func (t *Trace) MaxRate() float64 {
	max := 0.0
	for _, s := range t.Samples {
		if s.Kbps > max {
			max = s.Kbps
		}
	}
	return max
}

// Scale returns a copy with every rate multiplied by rateFactor and every
// duration divided by timeFactor (1 keeps real time). It supports the
// emulator's time-compression mode.
func (t *Trace) Scale(rateFactor, timeFactor float64) *Trace {
	samples := make([]Sample, len(t.Samples))
	for i, s := range t.Samples {
		samples[i] = Sample{Duration: s.Duration / timeFactor, Kbps: s.Kbps * rateFactor}
	}
	out, err := New(t.Name, samples)
	if err != nil {
		panic(fmt.Sprintf("trace: scaling %q by (%v, %v): %v", t.Name, rateFactor, timeFactor, err))
	}
	return out
}
