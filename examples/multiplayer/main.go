// Multiplayer: the Sec 8 discussion made concrete — three adaptive players
// share one bottleneck link. Compare how RB, FESTIVE and RobustMPC behave
// when they compete: fairness (Jain index), link utilization, stability,
// and per-player QoE.
//
//	go run ./examples/multiplayer
package main

import (
	"fmt"
	"log"

	"mpcdash/internal/model"
	"mpcdash/internal/multiplayer"
	"mpcdash/internal/runner"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

func main() {
	manifest, err := model.NewCBRManifest(model.EnvivioLadder(), 30, 4)
	if err != nil {
		log.Fatal(err)
	}
	// A 6 Mbps bottleneck: enough for three 2000 kbps streams, not enough
	// for three 3000 kbps ones — the contention regime.
	link, err := trace.FromRates("bottleneck", 1000, []float64{6000})
	if err != nil {
		log.Fatal(err)
	}
	algs := runner.StandardSet(model.Balanced, model.QIdentity, 30, 5)

	fmt.Printf("%-14s %8s %8s %12s %10s %12s\n", "players", "jain", "util", "instability", "avg kbps", "avg QoE")
	for _, name := range []string{"RB", "FESTIVE", "RobustMPC"} {
		alg, err := runner.Lookup(algs, name)
		if err != nil {
			log.Fatal(err)
		}
		players := make([]multiplayer.Player, 3)
		for i := range players {
			players[i] = multiplayer.Player{
				Name:        fmt.Sprintf("%s-%d", name, i),
				Controller:  alg.Factory(manifest),
				Predictor:   alg.Predictor(link),
				StartOffset: float64(i) * 5, // staggered joins
			}
		}
		cfg := sim.DefaultConfig()
		cfg.Startup = alg.Startup
		res, err := multiplayer.Run(manifest, link, players, cfg)
		if err != nil {
			log.Fatal(err)
		}
		var avgBitrate, avgQoE float64
		for _, s := range res.Sessions {
			avgBitrate += s.ComputeMetrics(model.QIdentity).AvgBitrate / float64(len(res.Sessions))
			avgQoE += s.QoE(model.Balanced, model.QIdentity) / float64(len(res.Sessions))
		}
		fmt.Printf("%-14s %8.3f %8.3f %12.3f %10.0f %12.0f\n",
			"3 × "+name, res.JainIndex, res.Utilization, res.Instability, avgBitrate, avgQoE)
	}
}
