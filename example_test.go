//go:build amd64

// The pinned outputs below are float results recorded on amd64; other
// architectures may fuse multiply-adds and print different last digits.

package mpcdash_test

import (
	"fmt"
	"sort"

	"mpcdash"
)

// Stream the paper's 260-second test video over one synthetic broadband
// trace with RobustMPC and print the QoE breakdown.
func ExampleRun() {
	video := mpcdash.EnvivioVideo() // 65 × 4 s chunks at {350..3000} kbps

	// One broadband-like trace, long enough to cover a slow session.
	tr := mpcdash.GenerateDataset(mpcdash.DatasetFCC, 1, video.Duration()+120, 7)[0]
	fmt.Printf("trace %s: mean %.0f kbps, stddev %.0f kbps\n", tr.Name(), tr.Mean(), tr.Stddev())

	res, err := mpcdash.Run(video, tr, mpcdash.RobustMPC, mpcdash.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: QoE %.0f (%.1f%% of offline optimal)\n", res.Algorithm, res.QoE, res.NormQoE*100)
	fmt.Printf("  avg bitrate    %.0f kbps\n", res.Metrics.AvgBitrate)
	fmt.Printf("  switches       %d (avg change %.0f kbps/chunk)\n", res.Metrics.Switches, res.Metrics.AvgBitrateChange)
	fmt.Printf("  rebuffering    %.2f s in %d events\n", res.Metrics.RebufferTime, res.Metrics.RebufferEvents)
	fmt.Printf("  startup delay  %.2f s\n", res.Metrics.StartupDelay)
	for _, c := range res.Chunks[:4] {
		fmt.Printf("  chunk %d: %4.0f kbps, downloaded in %.2f s at %4.0f kbps, buffer %.1f s\n",
			c.Index, c.Bitrate, c.DownloadTime, c.Throughput, c.Buffer)
	}
	// Output:
	// trace fcc-8: mean 1441 kbps, stddev 308 kbps
	// RobustMPC: QoE 74958 (84.1% of offline optimal)
	//   avg bitrate    1387 kbps
	//   switches       15 (avg change 195 kbps/chunk)
	//   rebuffering    0.00 s in 0 events
	//   startup delay  0.91 s
	//   chunk 0:  350 kbps, downloaded in 0.91 s at 1531 kbps, buffer 0.9 s
	//   chunk 1:  600 kbps, downloaded in 1.57 s at 1531 kbps, buffer 4.0 s
	//   chunk 2:  600 kbps, downloaded in 1.57 s at 1531 kbps, buffer 6.4 s
	//   chunk 3: 1000 kbps, downloaded in 2.56 s at 1565 kbps, buffer 8.9 s
}

// Figure 8 in miniature: the six algorithms of the paper's evaluation
// over mobile (HSDPA-like) traces, ranked by median normalized QoE, with
// the mean of each QoE factor.
func ExampleCompare() {
	video := mpcdash.EnvivioVideo()
	traces := mpcdash.GenerateDataset(mpcdash.DatasetHSDPA, 5, video.Duration()+120, 21)
	algs := []mpcdash.Algorithm{
		mpcdash.RB, mpcdash.BB, mpcdash.FESTIVE,
		mpcdash.DashJS, mpcdash.FastMPC, mpcdash.RobustMPC,
	}
	results, err := mpcdash.Compare(video, traces, algs, mpcdash.DefaultConfig())
	if err != nil {
		panic(err)
	}

	type row struct {
		name                       string
		nqoe, bitrate, change, reb float64
	}
	var rows []row
	for _, a := range algs {
		list := results[a.String()]
		r := row{name: a.String()}
		nq := make([]float64, len(list))
		for i, res := range list {
			nq[i] = res.NormQoE
			r.bitrate += res.Metrics.AvgBitrate / float64(len(list))
			r.change += res.Metrics.AvgBitrateChange / float64(len(list))
			r.reb += res.Metrics.RebufferTime / float64(len(list))
		}
		sort.Float64s(nq)
		r.nqoe = nq[len(nq)/2]
		rows = append(rows, r)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].nqoe > rows[j].nqoe })

	fmt.Printf("%-10s %8s %12s %14s %12s\n", "algorithm", "n-QoE", "avg kbps", "change/chunk", "rebuffer(s)")
	for _, r := range rows {
		fmt.Printf("%-10s %8.3f %12.0f %14.0f %12.2f\n", r.name, r.nqoe, r.bitrate, r.change, r.reb)
	}
	// Output:
	// algorithm     n-QoE     avg kbps   change/chunk  rebuffer(s)
	// BB            0.928         2317            255         0.27
	// FastMPC       0.893         2395            155         8.09
	// RobustMPC     0.868         2231            188         0.83
	// RB            0.780         2038            203         0.58
	// FESTIVE       0.676         1735             66         0.38
	// dash.js       0.605         1949            582         0.00
}
