// Command multiplayer simulates several adaptive players sharing one
// bottleneck link (the Sec 8 multi-player discussion) and reports fairness,
// utilization, stability and per-player QoE.
//
// Usage:
//
//	multiplayer [-players 3] [-alg RobustMPC] [-link 6000] [-chunks 30]
//	            [-stagger 5] [-dataset ""]
//
// With -dataset set (fcc/hsdpa/synthetic) the bottleneck follows a
// generated trace instead of a constant -link rate.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mpcdash/internal/model"
	"mpcdash/internal/multiplayer"
	"mpcdash/internal/runner"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

func main() {
	var (
		players = flag.Int("players", 3, "number of competing players")
		algName = flag.String("alg", "RobustMPC", "RB, BB, FESTIVE, dash.js, MPC, RobustMPC, FastMPC")
		link    = flag.Float64("link", 6000, "constant bottleneck capacity in kbps")
		chunks  = flag.Int("chunks", 30, "video length in 4-second chunks")
		stagger = flag.Float64("stagger", 5, "seconds between player arrivals")
		dataset = flag.String("dataset", "", "trace-driven bottleneck: fcc, hsdpa or synthetic")
		seed    = flag.Int64("seed", 1, "trace seed when -dataset is set")
	)
	flag.Parse()

	if *players < 1 {
		fatal(fmt.Errorf("need at least one player"))
	}
	m, err := model.NewCBRManifest(model.EnvivioLadder(), *chunks, 4)
	if err != nil {
		fatal(err)
	}

	var bottleneck *trace.Trace
	if *dataset == "" {
		bottleneck, err = trace.FromRates("const", 1e6, []float64{*link})
		if err != nil {
			fatal(err)
		}
	} else {
		var kind trace.DatasetKind
		switch strings.ToLower(*dataset) {
		case "fcc":
			kind = trace.FCC
		case "hsdpa":
			kind = trace.HSDPA
		case "synthetic":
			kind = trace.Synthetic
		default:
			fatal(fmt.Errorf("unknown dataset %q", *dataset))
		}
		// Generous length: N staggered sessions can far outlast one.
		bottleneck = trace.Dataset(kind, 1, float64(*players)*m.Duration()*3, *seed)[0]
	}

	alg, err := runner.Lookup(runner.Catalog(model.Balanced, model.QIdentity, 30, 5), *algName)
	if err != nil {
		fatal(err)
	}
	ps := make([]multiplayer.Player, *players)
	for i := range ps {
		ps[i] = multiplayer.Player{
			Name:        fmt.Sprintf("p%d", i),
			Controller:  alg.Factory(m),
			Predictor:   alg.Predictor(bottleneck),
			StartOffset: float64(i) * *stagger,
		}
	}

	cfg := sim.DefaultConfig()
	cfg.Startup = alg.Startup
	res, err := multiplayer.Run(m, bottleneck, ps, cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%d × %s over %s (mean %.0f kbps)\n\n", *players, *algName, bottleneck.Name, bottleneck.Mean())
	fmt.Printf("Jain fairness   %.3f\n", res.JainIndex)
	fmt.Printf("utilization     %.3f\n", res.Utilization)
	fmt.Printf("instability     %.3f switches/chunk\n\n", res.Instability)
	fmt.Printf("%-10s %10s %10s %12s %10s\n", "player", "avg kbps", "switches", "rebuffer(s)", "QoE")
	for i, s := range res.Sessions {
		met := s.ComputeMetrics(model.QIdentity)
		fmt.Printf("%-10s %10.0f %10d %12.2f %10.0f\n",
			ps[i].Name, met.AvgBitrate, met.Switches, met.RebufferTime,
			s.QoE(model.Balanced, model.QIdentity))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "multiplayer: %v\n", err)
	os.Exit(1)
}
