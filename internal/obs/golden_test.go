package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mpcdash/internal/abr"
	"mpcdash/internal/core"
	"mpcdash/internal/model"
	"mpcdash/internal/obs"
	"mpcdash/internal/predictor"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// TestChromeTraceGolden pins the Chrome trace of the offline event stream
// byte for byte, for the sessions whose exports internal/export pins: BB
// on an FCC trace, RobustMPC on an HSDPA trace, a hand-built log that sets
// every transport field, and a session with no chunks. Every chunk gets a
// fixed DecisionTime, including a sub-microsecond one, so the decide
// spans' duration floor and solver_us resolution are pinned too. Go may
// fuse multiply-adds on arm64, ppc64le and s390x, so the simulated
// sessions are amd64's.
func TestChromeTraceGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden traces are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	m := model.EnvivioManifest()
	bb, err := sim.Run(m, trace.GenFCC(9, m.Duration()+60), abr.NewBB(5, 10)(m),
		predictor.NewHarmonicMean(5), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Startup = sim.StartupController
	robust, err := sim.Run(m, trace.GenHSDPA(11, m.Duration()+120),
		core.NewRobustMPC(model.Balanced, model.QIdentity, 30, 5)(m),
		predictor.NewErrorTracked(predictor.NewHarmonicMean(5), 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	transport := &model.SessionResult{
		Algorithm:    "RobustMPC",
		StartupDelay: 2.5,
		Chunks: []model.ChunkRecord{
			{
				Index: 0, Level: 2, Bitrate: 1000, SizeKbits: 4000, StartTime: 0,
				DownloadTime: 2.5, Throughput: 1600, BufferBefore: 0, BufferAfter: 4,
				Predicted: 1200, Retries: 2, Resumes: 1,
				Attempts: []model.AttemptRecord{
					{Start: 0, Duration: 0.5, Level: 2, Error: "unexpected EOF"},
					{Start: 0.75, Duration: 0.5, Backoff: 0.25, Level: 2, Resumed: true, Error: "connection reset by peer"},
					{Start: 1.75, Duration: 0.75, Backoff: 0.5, Level: 2, Resumed: true},
				},
			},
			{
				Index: 1, Level: 0, Bitrate: 350, SizeKbits: 1400, StartTime: 2.5,
				DownloadTime: 5, Throughput: 280, BufferBefore: 4, BufferAfter: 3,
				Rebuffer: 1, Wait: 0.5, Predicted: 900, Retries: 1, Fallback: true,
				Attempts: []model.AttemptRecord{
					{Start: 2.5, Duration: 1, Level: 3, Error: "HTTP 503"},
					{Start: 4, Duration: 3.5, Backoff: 0.5, Level: 0},
				},
			},
		},
	}
	sessions := []struct {
		name string
		res  *model.SessionResult
	}{
		{"bb_fcc", bb},
		{"robustmpc_hsdpa", robust},
		{"transport", transport},
		{"empty", &model.SessionResult{Algorithm: "BB"}},
	}
	for _, s := range sessions {
		for i := range s.res.Chunks {
			s.res.Chunks[i].DecisionTime = 3e-7 + float64(i)*1.23456789e-5
		}
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, obs.EventsFromSession(s.res)); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", s.name+".trace.json")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s drifted:\n--- got ---\n%s\n--- want ---\n%s", path, buf.Bytes(), want)
		}
	}
}
