package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mpcdash/internal/fleet"
)

// lines is a stdout that hands the test each write, which is one line
// for every print abrd makes.
// Make it with room for every line the command prints, so a write never
// blocks a run whose output the test has stopped reading.
type lines chan string

func (l lines) Write(p []byte) (int, error) {
	l <- string(p)
	return len(p), nil
}

// A few svc-backend fleet sessions against a running abrd, then a drain
// when the context ends: the decisions show on its /metrics, and the
// trace sink is flushed before run returns.
func TestServeThenDrain(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "decisions.json")
	ctx, cancel := context.WithCancelCause(context.Background())
	out := make(lines, 16)
	var errb bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-fairness", "-trace-out", tracePath}, out, &errb)
	}()
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

	var first string
	select {
	case first = <-out:
	case code := <-done:
		stopped = true
		t.Fatalf("abrd exited %d before serving: %s", code, errb.String())
	}
	m := regexp.MustCompile(`^abrd: decision API at (http://[^/]+)/v1, metrics at http://[^/]+/metrics\n$`).FindStringSubmatch(first)
	if m == nil {
		t.Fatalf("first line %q", first)
	}
	url := m[1]
	if got := <-out; got != "abrd: link-group fairness enabled\n" {
		t.Errorf("second line %q", got)
	}

	f, err := fleet.New(fleet.SvcDemoScenario(4), fleet.Options{Backend: fleet.BackendSvc, SvcURL: url})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var completed int64
	for _, p := range rep.Populations {
		completed += p.Completed
	}
	if completed != 4 {
		t.Errorf("%d of 4 sessions completed", completed)
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Four sessions of the 65-chunk demo video, one decision per chunk.
	if want := "\nmpcdash_abrsvc_decisions_total 260\n"; !strings.Contains(string(prom), want) {
		t.Errorf("/metrics lacks %q:\n%s", want, prom)
	}

	if code := stop(); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	close(out)
	var rest strings.Builder
	for l := range out {
		rest.WriteString(l)
	}
	if want := "abrd: interrupt received, draining (deadline 10s)\nabrd: drained cleanly\n"; rest.String() != want {
		t.Errorf("drain lines %q, want %q", rest.String(), want)
	}
	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b) || !bytes.Contains(b, []byte(`"ph"`)) {
		t.Errorf("trace file is not a flushed Chrome trace: %.200s", b)
	}
	if resp, err := http.Get(url + "/healthz"); err == nil {
		resp.Body.Close()
		t.Errorf("abrd still serves after run returned")
	}
}

func TestRunErrors(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-h"}, 0, "Usage of abrd"},
		{[]string{"-drain", "soon"}, 2, "invalid value"},
		{[]string{"-addr", "127.0.0.1:-1"}, 1, "abrd: abrsvc: listen on 127.0.0.1:-1"},
		{[]string{"-addr", "127.0.0.1:0", "-trace-out", filepath.Join(t.TempDir(), "no", "dir.json")}, 1, "abrd: open "},
	} {
		var out, errb bytes.Buffer
		code := run(ctx, c.args, &out, &errb)
		if code != c.code || !strings.Contains(errb.String(), c.stderr) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d with %q", c.args, code, errb.String(), c.code, c.stderr)
		}
	}
}
