// Decision-service benchmarks (the PR 7 budget): steady-state decide
// throughput against a live abrd over loopback HTTP, and the lookup-path
// decision latency distribution measured server-side. TestSvcPerformance
// logs the numbers (see `make bench-svc`) and asserts
// the hard budget: p99 of the lookup-path decision (predictor update +
// table lookup, excluding HTTP) stays under a millisecond.
package mpcdash_test

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"mpcdash/internal/abrsvc"
	"mpcdash/internal/fastmpc"
)

// histQuantile extracts quantile q from an obs.Registry histogram
// snapshot ({count, sum, buckets}); buckets map formatted upper bounds to
// cumulative counts. Returns the upper bound of the first bucket covering
// the quantile — a conservative (pessimistic) estimate.
func histQuantile(snap any, q float64) (float64, error) {
	m, ok := snap.(map[string]any)
	if !ok {
		return 0, fmt.Errorf("snapshot is %T, not a histogram", snap)
	}
	count, _ := m["count"].(uint64)
	if count == 0 {
		return 0, fmt.Errorf("histogram is empty")
	}
	buckets, _ := m["buckets"].(map[string]uint64)
	type bkt struct {
		bound float64
		cum   uint64
	}
	var bs []bkt
	for k, cum := range buckets {
		if k == "+Inf" {
			continue
		}
		b, err := strconv.ParseFloat(k, 64)
		if err != nil {
			return 0, fmt.Errorf("bucket bound %q: %w", k, err)
		}
		bs = append(bs, bkt{b, cum})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].bound < bs[j].bound })
	need := uint64(q * float64(count))
	for _, b := range bs {
		if b.cum >= need {
			return b.bound, nil
		}
	}
	if len(bs) == 0 {
		return 0, fmt.Errorf("histogram has no finite buckets")
	}
	// Quantile landed in +Inf: report beyond the last finite bound.
	return bs[len(bs)-1].bound * 2, nil
}

// TestSvcPerformance load-tests a self-hosted decision service and logs
// the numbers. Asserted: server-side lookup-path decision p99 under
// 1 ms, and a sane end-to-end throughput floor.
func TestSvcPerformance(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark report; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the timings")
	}

	workers := 2 * runtime.GOMAXPROCS(0)
	if workers > 32 {
		workers = 32
	}
	const decidesPerWorker = 2000

	svc := abrsvc.New(abrsvc.Config{
		MaxSessions: workers + 1,
		MaxInFlight: workers,
		QueueDepth:  4 * workers,
		QueueWait:   time.Second,
		Tables:      fastmpc.NewRegistry(),
	})
	srv, err := svc.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	client := abrsvc.NewClient(srv.URL())
	defer client.CloseIdle()
	ctx := context.Background()

	// One session per worker: decide traffic for a session is serialized
	// server-side, so this measures uncontended lookup-path latency at
	// full transport concurrency. Robust sessions ride the same table.
	sessions := make([]string, workers)
	for w := range sessions {
		ack, err := client.Register(ctx, abrsvc.SessionRequest{
			Config: abrsvc.SessionConfig{Robust: w%2 == 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		sessions[w] = ack.Session
	}

	decide := func(w, chunk, prev int) (int, error) {
		var samples []float64
		if chunk > 0 {
			samples = []float64{800 + 120*float64((w*13+chunk*7)%25)}
		}
		resp, err := client.Decide(ctx, abrsvc.DecideRequest{
			Session: sessions[w], Chunk: chunk,
			Buffer:            float64((w + chunk*3) % 28),
			PrevLevel:         prev,
			ThroughputSamples: samples,
		})
		if err != nil {
			return 0, err
		}
		return resp.Level, nil
	}

	// Warm up transports and predictor windows before the timed section.
	for w := 0; w < workers; w++ {
		prev := -1
		for chunk := 0; chunk < 10; chunk++ {
			if prev, err = decide(w, chunk, prev); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prev := 0
			for i := 0; i < decidesPerWorker; i++ {
				lvl, err := decide(w, 10+i, prev)
				if err != nil {
					errs[w] = err
					return
				}
				prev = lvl
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	total := workers * decidesPerWorker
	perSec := float64(total) / elapsed.Seconds()
	snap := svc.Registry().Snapshot()
	p99Decide, err := histQuantile(snap[abrsvc.MetricDecideSeconds], 0.99)
	if err != nil {
		t.Fatalf("decide histogram: %v", err)
	}
	p99Request, err := histQuantile(snap[abrsvc.MetricRequestSeconds], 0.99)
	if err != nil {
		t.Fatalf("request histogram: %v", err)
	}

	t.Logf("%d decisions across %d workers in %.2fs: %.0f decisions/s", total, workers, elapsed.Seconds(), perSec)
	t.Logf("server-side p99: lookup path %.1f µs, end-to-end request %.1f µs", p99Decide*1e6, p99Request*1e6)

	if p99Decide > 1e-3 {
		t.Errorf("lookup-path decision p99 = %.3f ms, budget is 1 ms", p99Decide*1e3)
	}
	if perSec < 1000 {
		t.Errorf("throughput %.0f decisions/s, floor is 1000/s", perSec)
	}

	report, err := json.MarshalIndent(map[string]any{
		"benchmark":           "loopback abrd, Envivio config, one session per worker",
		"workers":             workers,
		"decisions":           total,
		"decisions_per_sec":   perSec,
		"p99_decide_seconds":  p99Decide,
		"p99_request_seconds": p99Request,
		"decide_count":        snap[abrsvc.MetricDecisionsTotal],
		"shed_total":          snap[abrsvc.MetricShedTotal],
		"elapsed_seconds":     elapsed.Seconds(),
		"decides_per_worker":  decidesPerWorker,
		"budget":              "p99_decide_seconds <= 0.001 && decisions_per_sec >= 1000",
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("report:\n%s", report)
}
