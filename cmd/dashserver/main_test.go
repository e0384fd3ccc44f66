package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"mpcdash/internal/core"
	"mpcdash/internal/emu"
	"mpcdash/internal/model"
	"mpcdash/internal/predictor"
	"mpcdash/internal/sim"
)

// lines is a stdout that hands the test each write, which is one line
// for every print dashserver makes.
// Make it with room for every line the command prints, so a write never
// blocks a run whose output the test has stopped reading.
type lines chan string

func (l lines) Write(p []byte) (int, error) {
	l <- string(p)
	return len(p), nil
}

// A player fetches the whole 5-chunk video from a running dashserver at
// 50× time compression; when the context ends the server drains and
// its metrics endpoint closes before run returns.
func TestServeThenDrain(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	out := make(lines, 16)
	var errb bytes.Buffer
	done := make(chan int, 1)
	args := []string{"-addr", "127.0.0.1:0", "-chunks", "5", "-scale", "50", "-dataset", "HSDPA", "-metrics-addr", "127.0.0.1:0"}
	go func() { done <- run(ctx, args, out, &errb) }()
	stopped := false
	stop := func() int {
		stopped = true
		cancel(errors.New("interrupt"))
		return <-done
	}
	defer func() {
		if !stopped {
			stop()
		}
	}()

	var got []string
	for len(got) < 3 {
		select {
		case l := <-out:
			got = append(got, l)
		case code := <-done:
			stopped = true
			t.Fatalf("dashserver exited %d before serving: %s", code, errb.String())
		}
	}
	metrics := regexp.MustCompile(`^dashserver: metrics at http://([^/]+)/metrics, `).FindStringSubmatch(got[0])
	serving := regexp.MustCompile(`^dashserver: serving 5-chunk video at (http://[^/]+)/manifest.mpd\n$`).FindStringSubmatch(got[1])
	if metrics == nil || serving == nil {
		t.Fatalf("stdout %q", got)
	}
	if !strings.HasPrefix(got[2], "dashserver: link shaped by hsdpa-1 (mean ") || !strings.HasSuffix(got[2], " kbps), time scale 50x\n") {
		t.Errorf("link line %q", got[2])
	}

	m, err := model.NewCBRManifest(model.EnvivioLadder(), 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	client := &emu.Client{
		BaseURL:    serving[1],
		Controller: core.NewRobustMPC(model.Balanced, model.QIdentity, 30, 5)(m),
		Predictor:  predictor.NewErrorTracked(predictor.NewHarmonicMean(5), 5),
		Config:     sim.Config{BufferMax: 30, Horizon: 5, Startup: sim.StartupController},
		TimeScale:  50,
	}
	pctx, pcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer pcancel()
	res, err := client.Run(pctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chunks) != 5 {
		t.Fatalf("played %d chunks, want 5", len(res.Chunks))
	}
	resp, err := http.Get("http://" + metrics[1] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "mpcdash_server_") {
		t.Errorf("/metrics has no server series:\n%s", prom)
	}

	if code := stop(); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	close(out)
	var rest strings.Builder
	for l := range out {
		rest.WriteString(l)
	}
	if want := "dashserver: interrupt received, draining (deadline 10s)\ndashserver: drained cleanly\n"; rest.String() != want {
		t.Errorf("drain lines %q, want %q", rest.String(), want)
	}
	// The metrics listener closes on a goroutine of its own once the
	// context ends, so allow it a moment.
	for _, addr := range []string{strings.TrimPrefix(serving[1], "http://"), metrics[1]} {
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				break
			}
			c.Close()
			if time.Now().After(deadline) {
				t.Errorf("%s still accepts after run returned", addr)
				break
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-h"}, 0, "Usage of dashserver"},
		{[]string{"-scale", "fast"}, 2, "invalid value"},
		{[]string{"-chunks", "0"}, 1, "dashserver: "},
		{[]string{"-dataset", "lte"}, 1, "dashserver: unknown dataset \"lte\""},
		{[]string{"-addr", "127.0.0.1:-1"}, 1, "dashserver: listen tcp"},
	} {
		var out, errb bytes.Buffer
		code := run(context.Background(), c.args, &out, &errb)
		if code != c.code || !strings.Contains(errb.String(), c.stderr) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d with %q", c.args, code, errb.String(), c.code, c.stderr)
		}
	}
}
