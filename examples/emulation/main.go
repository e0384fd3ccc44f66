// Emulation: the real-network half of the evaluation — start the shaped
// HTTP chunk server on loopback, then play the video through real GETs with
// a RobustMPC-driven DASH client, time-compressed 20× so the 80-second
// session finishes in about 4 seconds of wall time.
//
//	go run ./examples/emulation [-trace-out session.trace.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mpcdash/internal/core"
	"mpcdash/internal/emu"
	"mpcdash/internal/model"
	"mpcdash/internal/obs"
	"mpcdash/internal/predictor"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

func main() {
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the session to this file")
	flag.Parse()

	const timeScale = 20 // media seconds per wall second

	// A 20-chunk (80 s) video keeps the demo short.
	manifest, err := model.NewCBRManifest(model.EnvivioLadder(), 20, 4)
	if err != nil {
		log.Fatal(err)
	}
	link := trace.GenHSDPA(3, manifest.Duration()+60)
	fmt.Printf("link: %s, mean %.0f kbps, stddev %.0f kbps\n", link.Name, link.Mean(), link.Stddev())

	srv := emu.NewServer(manifest)
	base, err := srv.Start(emu.NewShaper(link.Scale(timeScale, timeScale)))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("chunk server: %s/manifest.mpd\n\n", base)

	client := &emu.Client{
		BaseURL:    base,
		Controller: core.NewRobustMPC(model.Balanced, model.QIdentity, 30, 5)(manifest),
		Predictor:  predictor.NewErrorTracked(predictor.NewHarmonicMean(5), 5),
		// RobustMPC chooses its own startup delay, as in the simulator.
		Config:    sim.Config{BufferMax: 30, Horizon: 5, Startup: sim.StartupController},
		TimeScale: timeScale,
		Retries:   emu.DefaultRetries,
	}
	var traceFile *os.File
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		client.Obs = obs.NewRecorder(nil, obs.NewChromeTrace(traceFile))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	start := time.Now()
	res, err := client.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if traceFile != nil {
		if err := client.Obs.Close(); err != nil {
			log.Fatal(err)
		}
		if err := traceFile.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s — open in chrome://tracing or https://ui.perfetto.dev\n", *traceOut)
	}
	fmt.Printf("played %d chunks (%.0f media-seconds) in %.1f wall-seconds\n\n",
		len(res.Chunks), manifest.Duration(), time.Since(start).Seconds())

	metrics := res.ComputeMetrics(model.QIdentity)
	fmt.Printf("QoE          %.0f\n", res.QoE(model.Balanced, model.QIdentity))
	fmt.Printf("avg bitrate  %.0f kbps\n", metrics.AvgBitrate)
	fmt.Printf("switches     %d\n", metrics.Switches)
	fmt.Printf("rebuffering  %.2f media-s\n", metrics.RebufferTime)
	fmt.Printf("startup      %.2f media-s\n", res.StartupDelay)
	fmt.Printf("transport    %d retries, %d range resumes, %d lowest-level fallbacks\n",
		metrics.Retries, metrics.Resumes, metrics.Fallbacks)

	fmt.Println("\nper-chunk log (media time):")
	for _, c := range res.Chunks {
		fmt.Printf("  chunk %2d: %4.0f kbps in %5.2f s at %4.0f kbps, buffer %5.1f s, rebuf %4.2f s\n",
			c.Index, c.Bitrate, c.DownloadTime, c.Throughput, c.BufferBefore, c.Rebuffer)
	}
}
