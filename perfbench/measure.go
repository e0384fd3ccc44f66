package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (xs is sorted in
// place). It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is the 0.5 quantile of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// phase is the outcome of one timed phase of a workload.
type phase struct {
	ops, failed int64     // operations attempted and failed
	rate        float64   // completed operations per second
	p50, p90    float64   // per-operation latency, µs
	p99         float64   // diagnostic only: too noisy to bound
	samples     int       // latency samples behind the percentiles
	perWindow   []float64 // completion rate per window or batch, 1/s
	err         error     // first failure, if any
}

// windows counts completions and latencies per fixed wall-clock window of
// a timed phase. Reporting the median over windows, not the whole-phase
// figure, keeps one burst of interference from another tenant out of the
// result. Latencies go into fixed log-spaced histograms, so recording
// allocates nothing and does not change the heap the measured code runs
// with.
type windows struct {
	start time.Time
	width time.Duration
	n     []int64
	lat   []latHist
}

func newWindows(start time.Time, phase, width time.Duration) *windows {
	k := max(int(phase/width), 1)
	return &windows{start: start, width: width, n: make([]int64, k), lat: make([]latHist, k)}
}

func (w *windows) index(t time.Time) int {
	if i := int(t.Sub(w.start) / w.width); i >= 0 && i < len(w.n) {
		return i
	}
	return -1
}

// done records one completed operation at t; completions past the last
// whole window are dropped.
func (w *windows) done(t time.Time) {
	if i := w.index(t); i >= 0 {
		w.n[i]++
	}
}

// latency records one request latency that ended at t.
func (w *windows) latency(t time.Time, us float64) {
	if i := w.index(t); i >= 0 {
		w.lat[i].add(us)
	}
}

// windowPhase merges per-client windows into the phase's median window
// rate and median window percentiles.
func windowPhase(ws []*windows) phase {
	k := len(ws[0].n)
	rates := make([]float64, k)
	var p50s, p90s, p99s []float64
	var p phase
	for i := 0; i < k; i++ {
		var h latHist
		for _, w := range ws {
			rates[i] += float64(w.n[i]) / w.width.Seconds()
			h.merge(&w.lat[i])
		}
		if h.count > 0 {
			p.samples += int(h.count)
			p50s = append(p50s, h.quantile(0.5))
			p90s = append(p90s, h.quantile(0.90))
			p99s = append(p99s, h.quantile(0.99))
		}
	}
	p.rate = median(rates)
	p.perWindow = rates
	p.p50 = median(p50s)
	p.p90 = median(p90s)
	p.p99 = median(p99s)
	return p
}

// latHist is a latency histogram with buckets 0.5 % wide from 1 µs to
// about 15 s.
type latHist struct {
	b     [latBuckets]uint32
	count uint64
}

const latBuckets = 3300

var latStep = math.Log1p(0.005)

func (h *latHist) add(us float64) {
	i := 0
	if us > 1 {
		i = min(int(math.Log(us)/latStep), latBuckets-1)
	}
	h.b[i]++
	h.count++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.b {
		h.b[i] += c
	}
	h.count += o.count
}

// quantile interpolates by rank inside the bucket holding the q-th
// sample.
func (h *latHist) quantile(q float64) float64 {
	target := q * float64(h.count)
	var cum float64
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := math.Exp(float64(i)*latStep), math.Exp(float64(i+1)*latStep)
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return math.NaN()
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// stealSeconds reads the CPU time the hypervisor took from this VM, summed
// over CPUs (/proc/stat, USER_HZ = 100). A run with high steal explains an
// outlying throughput.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / 100
}

// runtimeSample reads the runtime/metrics counters the benchmark reports
// around a timed phase.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		default:
			return math.NaN()
		}
	}
	return runtimeSample{gcCPU: val(s[0].Value), totalCPU: val(s[1].Value), allocBytes: val(s[2].Value)}
}

// allocMeter measures heap allocations per operation across a probe loop.
type allocMeter struct{ mallocs, bytes uint64 }

func startAllocs() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{ms.Mallocs, ms.TotalAlloc}
}

// perOp returns allocations and bytes per op since the meter started.
func (a allocMeter) perOp(ops int) (allocs, bytes float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-a.mallocs) / float64(ops), float64(ms.TotalAlloc-a.bytes) / float64(ops)
}

// ---- spans -----------------------------------------------------------

// span is one timed call into a layer, made from the benchmark's own code.
// Spans of one operation share an id; parent indexes the enclosing span
// (-1 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; they are written out when the run
// ends so that tracing never does I/O inside a timed phase.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index. A nil tracer records nothing.
func (t *tracer) begin(id uint64, name string, parent int) int {
	return t.beginAt(time.Now(), id, name, parent)
}

// beginAt is begin for a span that started at t0.
func (t *tracer) beginAt(t0 time.Time, id uint64, name string, parent int) int {
	if t == nil {
		return -1
	}
	start := t0.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: start})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// layerTime is the per-name aggregate of a set of spans.
type layerTime struct {
	Name    string
	Count   int
	TotalNS float64
	SelfNS  float64
	Durs    []float64 // per-span durations, µs
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval covered by its child spans.
func (t *tracer) selfTimes() []*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	by := map[string]*layerTime{}
	var names []string
	for i, s := range t.spans {
		if s.End == 0 {
			continue
		}
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
			names = append(names, s.Name)
		}
		dur := float64(s.End - s.Start)
		lt.Count++
		lt.TotalNS += dur
		lt.SelfNS += dur - covered(t.spans, children[i], s.Start, s.End)
		lt.Durs = append(lt.Durs, dur/1e3)
	}
	sort.Strings(names)
	out := make([]*layerTime, len(names))
	for i, n := range names {
		out[i] = by[n]
	}
	return out
}

// covered returns the length of the union of the child intervals clipped
// to [lo, hi].
func covered(spans []span, kids []int, lo, hi int64) float64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		s := spans[k]
		if s.End == 0 {
			continue
		}
		ivs = append(ivs, iv{max(s.Start, lo), min(s.End, hi)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		a := max(v.a, end)
		if v.b > a {
			total += v.b - a
			end = v.b
		}
	}
	return float64(total)
}

// writeSpans stores every recorded span as JSON lines.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes renders the self-time table of a traced phase.
func printSelfTimes(w io.Writer, title string, lts []*layerTime) {
	fmt.Fprintf(w, "%s\n  %-28s %9s %12s %12s %12s\n", title, "span", "count", "mean_us", "self_us", "p50_us")
	for _, lt := range lts {
		n := float64(lt.Count)
		fmt.Fprintf(w, "  %-28s %9d %12.2f %12.2f %12.2f\n", lt.Name, lt.Count, lt.TotalNS/n/1e3, lt.SelfNS/n/1e3, median(lt.Durs))
	}
}
