package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpcdash/internal/abrsvc"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/model"
	"mpcdash/internal/predictor"
	"mpcdash/internal/trace"
)

// The decide-steady workload drives one self-hosted decision service over
// loopback with closed-loop clients: each client sends its next request
// only after the previous reply arrived, as a player waits for its
// decision before fetching the chunk. Timer-paced (open-loop) sends were
// tried and measured the generator, not the service: their send jitter
// exceeded the service's round trip.

const (
	svcClients   = 2    // closed-loop clients, one keep-alive connection each
	svcSessions  = 64   // resident sessions in decide-steady
	inputLen     = 1024 // per-session input cycle (chunks)
	svcHorizon   = 5    // abrsvc default horizon
	svcBufferMax = 30   // abrsvc default buffer cap, seconds
)

// svcEnv is a running decision service plus the clients, the resident
// sessions and the seeded inputs of decide-steady.
type svcEnv struct {
	svc     *abrsvc.Service
	srv     *abrsvc.Server
	clients [svcClients]*abrsvc.Client

	// The traced phase serves the same Service through a wrapper that
	// records a span around Handler().ServeHTTP.
	tsrv     *http.Server
	tclients [svcClients]*abrsvc.Client
	tdone    chan struct{}
	tr       *tracer
	cur      [svcClients]atomic.Int64  // open client span per client
	curID    [svcClients]atomic.Uint64 // its operation id
	opID     atomic.Uint64

	table    *fastmpc.CompressedTable
	tableKey string
	samples  [][]float64 // per session: throughput sample per chunk, kbps
	buffers  [][]float64 // per session: buffer level per chunk, seconds

	// Resident sessions, owned by client s%svcClients.
	ids    []string
	robust []bool
	chunk  []int
	prev   []int
	levels [][]int8
	dead   []bool

	snap0, snap1 map[string]any // service metrics around the last phase
}

// newSvcEnv builds the inputs, starts the service and registers the
// resident sessions. The FastMPC table must already be resident in
// fastmpc.Shared (warmTable), so registrations are registry hits.
func newSvcEnv(seed int64) (*svcEnv, error) {
	e := &svcEnv{}
	opt, spec, err := tableConfig()
	if err != nil {
		return nil, err
	}
	if e.table, err = fastmpc.Shared.Table(opt, spec); err != nil {
		return nil, err
	}
	e.tableKey = fmt.Sprintf("%016x", fastmpc.TableKey(opt, model.QualityID(model.QIdentity), spec))

	traces := trace.Dataset(trace.HSDPA, svcSessions, 65*4+120, seed)
	rng := rand.New(rand.NewSource(seed))
	e.samples = make([][]float64, svcSessions)
	e.buffers = make([][]float64, svcSessions)
	for s, tr := range traces {
		e.samples[s] = make([]float64, inputLen)
		e.buffers[s] = make([]float64, inputLen)
		for k := 0; k < inputLen; k++ {
			e.samples[s][k] = tr.RateAt(4 * float64(k))
			e.buffers[s][k] = rng.Float64() * svcBufferMax
		}
	}

	e.svc = abrsvc.New(abrsvc.Config{})
	if e.srv, err = e.svc.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for g := range e.clients {
		e.clients[g] = abrsvc.NewClient(e.srv.URL())
	}
	ctx := context.Background()
	for s := 0; s < svcSessions; s++ {
		id := fmt.Sprintf("c%d-s%02d", s%svcClients, s)
		robust := s%2 == 1
		ack, err := e.clients[s%svcClients].Register(ctx, abrsvc.SessionRequest{ID: id, Config: abrsvc.SessionConfig{Robust: robust}})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("register %s: %w", id, err)
		}
		if ack.TableKey != e.tableKey {
			e.close()
			return nil, fmt.Errorf("register %s: table key %s, want %s", id, ack.TableKey, e.tableKey)
		}
		e.ids = append(e.ids, id)
		e.robust = append(e.robust, robust)
		e.chunk = append(e.chunk, 0)
		e.prev = append(e.prev, -1)
		e.levels = append(e.levels, make([]int8, 0, 8192))
		e.dead = append(e.dead, false)
	}
	return e, nil
}

func (e *svcEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for g := range e.clients {
		if e.clients[g] != nil {
			e.clients[g].CloseIdle()
		}
		if e.tclients[g] != nil {
			e.tclients[g].CloseIdle()
		}
	}
	if e.tsrv != nil {
		_ = e.tsrv.Shutdown(ctx)
		<-e.tdone
	}
	if e.srv != nil {
		_ = e.srv.Shutdown(ctx)
	}
}

// startTraced serves the service a second time, on its own listener,
// through a handler that records one span per request and links it to
// the client span that sent it.
func (e *svcEnv) startTraced(tr *tracer) error {
	e.tr = tr
	if e.tsrv != nil {
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := e.svc.Handler()
	e.tsrv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		g := requestClient(r)
		i := e.tr.beginAt(t0, e.curID[g].Load(), "abrsvc.serve.decide", int(e.cur[g].Load()))
		h.ServeHTTP(w, r)
		e.tr.end(i)
	})}
	e.tdone = make(chan struct{})
	go func() {
		defer close(e.tdone)
		_ = e.tsrv.Serve(ln)
	}()
	for g := range e.tclients {
		e.tclients[g] = abrsvc.NewClient("http://" + ln.Addr().String())
	}
	return nil
}

// requestClient finds which client sent a decide request from the session
// id it names: ids are "c<client>-...". The body is read and replaced.
func requestClient(r *http.Request) int {
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	if i := bytes.Index(body, []byte(`"session":"c`)); i >= 0 && i+12 < len(body) {
		if g := int(body[i+12] - '0'); g >= 0 && g < svcClients {
			return g
		}
	}
	return 0
}

// run drives the closed-loop clients for the given time. With a tracer the
// clients talk to the span-recording listener.
func (e *svcEnv) run(seconds float64, tr *tracer) phase {
	clients := e.clients
	if tr != nil {
		if err := e.startTraced(tr); err != nil {
			return phase{failed: 1, err: err}
		}
		clients = e.tclients
	}
	e.snap0 = e.svc.Registry().Snapshot()
	start := time.Now()
	dur := time.Duration(seconds * float64(time.Second))
	deadline := start.Add(dur)
	ws := make([]*windows, svcClients)
	var ops, failed [svcClients]int64
	var wg sync.WaitGroup
	for g := 0; g < svcClients; g++ {
		ws[g] = newWindows(start, dur, windowWidth(seconds))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ops[g], failed[g] = e.loop(g, clients[g], deadline, ws[g], tr)
		}(g)
	}
	wg.Wait()
	e.snap1 = e.svc.Registry().Snapshot()
	p := windowPhase(ws)
	for g := range ops {
		p.ops += ops[g]
		p.failed += failed[g]
	}
	return p
}

// windowWidth splits a phase into 40 windows: the median of many short
// windows tracks the phase's typical rate more closely than few long ones,
// because the VM's speed wanders on a scale of seconds.
func windowWidth(seconds float64) time.Duration {
	w := time.Duration(seconds / 40 * float64(time.Second))
	if w < 100*time.Millisecond {
		w = 100 * time.Millisecond
	}
	return w
}

// openSpan starts a client span and publishes it so that the traced
// server can link its own span to it.
func (e *svcEnv) openSpan(tr *tracer, g int, id uint64, name string, parent int) int {
	if tr == nil {
		return -1
	}
	i := tr.begin(id, name, parent)
	e.curID[g].Store(id)
	e.cur[g].Store(int64(i))
	return i
}

// loop is one closed-loop client: it cycles through its sessions, each
// decide carrying the session's next seeded sample and buffer level.
func (e *svcEnv) loop(g int, c *abrsvc.Client, deadline time.Time, w *windows, tr *tracer) (ops, failed int64) {
	ctx := context.Background()
	sample := []float64{0}
	s := g
	for {
		if !time.Now().Before(deadline) {
			return ops, failed
		}
		for tries := 0; e.dead[s] && tries < svcSessions; tries++ {
			s = (s + svcClients) % svcSessions
		}
		if e.dead[s] {
			return ops, failed
		}
		k := e.chunk[s]
		sample[0] = e.samples[s][k%inputLen]
		req := abrsvc.DecideRequest{
			Session:           e.ids[s],
			Chunk:             k,
			Buffer:            e.buffers[s][k%inputLen],
			PrevLevel:         e.prev[s],
			ThroughputSamples: sample,
		}
		si := e.openSpan(tr, g, e.opID.Add(1), "client.decide", -1)
		t0 := time.Now()
		resp, err := c.Decide(ctx, req)
		t1 := time.Now()
		tr.end(si)
		ops++
		if err != nil || resp.Session != req.Session || resp.Chunk != k || resp.Replayed {
			failed++
			e.dead[s] = true
			continue
		}
		w.done(t1)
		w.latency(t1, float64(t1.Sub(t0).Nanoseconds())/1e3)
		e.levels[s] = append(e.levels[s], int8(resp.Level))
		e.prev[s] = resp.Level
		e.chunk[s]++
		s = (s + svcClients) % svcSessions
	}
}

// refSession is the local reference for one service session: the same
// predictor and table the service uses, fed the same inputs, as in the
// service-vs-local-controller parity test.
type refSession struct {
	pred   *predictor.ErrorTracked
	robust bool
	prev   int
}

func newRef(robust bool) *refSession {
	return &refSession{pred: predictor.NewErrorTracked(predictor.NewHarmonicMean(5), 5), robust: robust, prev: -1}
}

func (e *svcEnv) refLevel(r *refSession, sample, buffer float64) int {
	if sample > 0 {
		r.pred.Observe(sample)
	}
	var rate float64
	if f := r.pred.Predict(svcHorizon); len(f) > 0 {
		rate = f[0]
	}
	if r.robust {
		if lb := r.pred.LowerBound(svcHorizon); len(lb) > 0 && lb[0] > 0 {
			rate = lb[0]
		}
	}
	return e.table.Lookup(buffer, r.prev, rate)
}

// check replays every recorded decision against the local reference and
// returns the number of decisions that differ.
func (e *svcEnv) check() (int64, error) {
	var wrong int64
	var first error
	note := func(err error) {
		wrong++
		if first == nil {
			first = err
		}
	}
	for s := range e.ids {
		ref := newRef(e.robust[s])
		for k, got := range e.levels[s] {
			want := e.refLevel(ref, e.samples[s][k%inputLen], e.buffers[s][k%inputLen])
			if int(got) != want {
				note(fmt.Errorf("session %s chunk %d: service level %d, reference %d", e.ids[s], k, got, want))
			}
			ref.prev = int(got)
		}
	}
	return wrong, first
}

// shed is the service's total count of requests refused by admission
// control.
func (e *svcEnv) shed() float64 {
	v, _ := e.svc.Registry().Snapshot()[abrsvc.MetricShedTotal].(uint64)
	return float64(v)
}

// svcLayers derives the decide-path decomposition from the last traced
// phase: client round trip → server span → request histogram → decide
// histogram. Means are used for the residuals because means add up.
func (e *svcEnv) svcLayers(tr *tracer, m map[string]float64) {
	var rt, serve []float64
	for _, lt := range tr.selfTimes() {
		switch lt.Name {
		case "client.decide":
			rt = lt.Durs
		case "abrsvc.serve.decide":
			serve = lt.Durs
		}
	}
	req := histDiff(e.snap0, e.snap1, abrsvc.MetricRequestSeconds)
	dec := histDiff(e.snap0, e.snap1, abrsvc.MetricDecideSeconds)
	m["abrsvc.roundtrip_p50_us"] = median(rt)
	m["abrsvc.roundtrip_p99_us"] = quantile(rt, 0.99)
	m["abrsvc.roundtrip_mean_us"] = mean(rt)
	m["abrsvc.serve_span_mean_us"] = mean(serve)
	m["abrsvc.server_request_p50_us"] = req.quantile(0.5) * 1e6
	m["abrsvc.server_request_p99_us"] = req.quantile(0.99) * 1e6
	m["abrsvc.server_request_mean_us"] = req.mean() * 1e6
	m["abrsvc.server_decide_p99_us"] = dec.quantile(0.99) * 1e6
	m["abrsvc.server_decide_mean_us"] = dec.mean() * 1e6
	m["abrsvc.transport_us"] = mean(rt) - req.mean()*1e6
	m["abrsvc.residual_client_net_us"] = mean(rt) - mean(serve)
	m["abrsvc.residual_mux_us"] = mean(serve) - req.mean()*1e6
	m["abrsvc.residual_request_us"] = (req.mean() - dec.mean()) * 1e6
}

// hist is the difference of one histogram between two registry snapshots.
type hist struct {
	bounds []float64 // ascending upper bounds; the last is +Inf
	counts []float64 // per-bucket (non-cumulative) counts
	count  float64
	sum    float64
}

func histDiff(a, b map[string]any, name string) hist {
	ha, _ := a[name].(map[string]any)
	hb, _ := b[name].(map[string]any)
	var h hist
	if hb == nil {
		return h
	}
	ba, _ := ha["buckets"].(map[string]uint64)
	bb, _ := hb["buckets"].(map[string]uint64)
	type bucket struct {
		le  float64
		cum float64
	}
	var bs []bucket
	for k, v := range bb {
		le := math.Inf(1)
		if k != "+Inf" {
			le, _ = strconv.ParseFloat(k, 64)
		}
		bs = append(bs, bucket{le, float64(v) - float64(ba[k])})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	var prev float64
	for _, x := range bs {
		h.bounds = append(h.bounds, x.le)
		h.counts = append(h.counts, x.cum-prev)
		prev = x.cum
	}
	h.count = prev
	sa, _ := ha["sum"].(float64)
	sb, _ := hb["sum"].(float64)
	h.sum = sb - sa
	return h
}

func (h hist) mean() float64 { return h.sum / h.count }

// quantile interpolates linearly inside the bucket holding the q-th
// sample; the overflow bucket reports its lower bound.
func (h hist) quantile(q float64) float64 {
	target := q * h.count
	var cum, lo float64
	for i, c := range h.counts {
		if c > 0 && cum+c >= target {
			hi := h.bounds[i]
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(target-cum)/c
		}
		cum += c
		lo = h.bounds[i]
	}
	return math.NaN()
}
