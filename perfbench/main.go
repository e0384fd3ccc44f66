// Command perfbench is the repository benchmark: three seeded workloads that
// drive the decision service, the fleet simulator and the Fig 8
// reproduction end to end, check their outputs, and report the metrics
// named in BENCHMARK.json. With -trace 1 it instead reports per-layer
// metrics: spans recorded around the benchmark's own calls into each
// layer, plus probes that time each layer's public functions. README.md
// beside this file says which layer metric explains which end-to-end
// metric.
//
//	go run . -workload decide-steady -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"mpcdash/internal/core"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/model"
)

// setupReps is how many times a run builds its workload from scratch; the
// reported setup_s is the median, so one slow build does not decide it.
const setupReps = 7

// env is a set-up workload, ready for timed phases.
type env interface {
	// run drives the workload for the given time; a non-nil tracer
	// records spans around the calls it makes.
	run(seconds float64, tr *tracer) phase
	// check verifies every output the phases produced and returns the
	// number of wrong ones.
	check() (int64, error)
	close()
}

// workloads builds each workload's env from the seed. README.md says why
// each exists.
var workloads = map[string]func(seed int64) (env, error){
	"decide-steady": func(seed int64) (env, error) { return newSvcEnv(seed) },
	"fleet-sim":     func(seed int64) (env, error) { return newFleetEnv(seed) },
	"paper-fig8":    func(int64) (env, error) { return &fig8Env{}, nil },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: decide-steady, fleet-sim or paper-fig8")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		return 2
	}
	fmt.Printf("# env workload=%s seed=%d seconds=%g trace=%d go=%s gomaxprocs=%d nproc=%d commit=%s\n",
		*name, *seed, *seconds, *traced, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit())

	var (
		e      env
		err    error
		setupS []float64
		buildS []float64
	)
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
			e = nil
		}
		runtime.GC()
		t0 := time.Now()
		var b float64
		if b, err = warmTable(); err == nil {
			e, err = setup(*seed)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		buildS = append(buildS, b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup %s: %v\n", *name, err)
			return 1
		}
	}
	defer e.close()

	res := result{Correct: true, Metrics: map[string]metric{}}
	fail := func(n int64, err error) {
		res.Failed += n
		if err != nil || n > 0 {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %d failed: %v\n", n, err)
		}
	}
	if *traced == 0 {
		st0 := stealSeconds()
		t0 := time.Now()
		p := e.run(*seconds, nil)
		steal := (stealSeconds() - st0) / (time.Since(t0).Seconds() * float64(runtime.NumCPU()))
		res.Attempted = p.ops
		fail(p.failed, p.err)
		fail(e.check())
		fail(checkBuilds())
		fmt.Fprintf(os.Stderr, "perfbench: %s ops=%d rate=%.1f/s p50=%.1fus p90=%.1fus p99=%.1fus (%d latency samples), CPU steal %.1f%%\n  per window/batch: %.4g\n  setup: %.4g\n",
			*name, p.ops, p.rate, p.p50, p.p90, p.p99, p.samples, 100*steal, p.perWindow, setupS)
		res.Metrics["throughput"] = metric{p.rate, "1/s"}
		res.Metrics["latency_p50_us"] = metric{p.p50, "us"}
		res.Metrics["latency_p90_us"] = metric{p.p90, "us"}
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	} else {
		layers := map[string]float64{"fastmpc.build_s": median(buildS)}
		var n int64
		res.Attempted, n, err = tracedRun(*name, *seed, *seconds, e, layers)
		fail(n, err)
		fail(checkBuilds())
		layers["fastmpc.builds"] = float64(fastmpc.Shared.Stats().Builds)
		for _, l := range perLayer {
			v, ok := layers[l.name]
			if !ok {
				fail(1, fmt.Errorf("layer metric %s was not measured", l.name))
				continue
			}
			res.Metrics[l.name] = metric{v, l.unit}
		}
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fail(1, fmt.Errorf("metric %s measured %v", k, m.Value))
			res.Metrics[k] = metric{0, m.Unit}
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// commit names the code under test: the revision the wrapper script
// found, else a hash of the sources it computed.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// tableConfig is the decision-table configuration every workload shares:
// the paper's Envivio video, Balanced weights, 30 s buffer, horizon 5 and
// the default 100×100 binning. abrsvc registration, fastmpc.NewController
// and the Fig 8 runner all resolve this same content key.
func tableConfig() (*core.Optimizer, fastmpc.BinSpec, error) {
	m := model.EnvivioManifest()
	opt, err := core.NewOptimizer(m, model.Balanced, model.QIdentity, 30, 5)
	if err != nil {
		return nil, fastmpc.BinSpec{}, err
	}
	return opt, fastmpc.DefaultBins(30, m.Ladder.Max()), nil
}

// warmTable drops every resident table and builds the shared one through
// the public registry, so the cold build is paid in setup and never in a
// timed phase. It returns the build time in seconds.
func warmTable() (float64, error) {
	fastmpc.ResetSharedTables()
	opt, spec, err := tableConfig()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, err = fastmpc.Shared.Table(opt, spec)
	return time.Since(t0).Seconds(), err
}

// checkBuilds fails the run unless exactly one table was built since the
// last setup: a second build means some layer missed the warm table.
func checkBuilds() (int64, error) {
	if b := fastmpc.Shared.Stats().Builds; b != 1 {
		return 1, fmt.Errorf("fastmpc built %d tables since setup, want 1", b)
	}
	return 0, nil
}
