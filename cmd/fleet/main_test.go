package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mpcdash/internal/abrsvc"
	"mpcdash/internal/fleet"
	"mpcdash/internal/obs"
)

func runCmd(ctx context.Context, args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(ctx, args, &out, &errb)
	return code, out.String(), errb.String()
}

// readReport decodes a -report file into population name → completed.
func readReport(t *testing.T, path string) map[string]int64 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep fleet.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	done := make(map[string]int64)
	for _, p := range rep.Populations {
		done[p.Name] = p.Completed
	}
	return done
}

func TestBuiltInScenario(t *testing.T) {
	report := filepath.Join(t.TempDir(), "f.json")
	code, out, errs := runCmd(context.Background(), "-sessions", "20", "-report", report)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	for _, want := range []string{
		"scenario \"demo\": 20 sessions in 2 populations on the sim backend (seed 1)\n",
		"\n20 sessions in ",
		"report written to " + report + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
	if got := readReport(t, report); got["robustmpc"] != 10 || got["buffer-based"] != 10 {
		t.Errorf("report completed %v, want 10 per population", got)
	}
}

// A scenario printed with -print-scenario plays back from -scenario,
// with -seed and -max-inflight applied on top.
func TestScenarioFile(t *testing.T) {
	dir := t.TempDir()
	code, sc, errs := runCmd(context.Background(), "-print-scenario", "-sessions", "6", "-seed", "9")
	if code != 0 {
		t.Fatalf("-print-scenario: exit %d, stderr %q", code, errs)
	}
	path := filepath.Join(dir, "sc.json")
	if err := os.WriteFile(path, []byte(sc), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errs := runCmd(context.Background(), "-scenario", path, "-max-inflight", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	if want := "scenario \"demo\": 6 sessions in 2 populations on the sim backend (seed 9)\n"; !strings.HasPrefix(out, want) {
		t.Errorf("stdout starts %q, want %q", out, want)
	}
}

// A context that has ended drains the fleet: the partial report still
// prints, and the exit status is 130.
func TestCancelledDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, out, errs := runCmd(ctx, "-sessions", "20")
	if code != 130 {
		t.Fatalf("exit %d, stderr %q; want 130", code, errs)
	}
	if !strings.Contains(out, "interrupted: drained in-flight sessions, reporting the partial run\n") ||
		!strings.Contains(out, "POPULATION") {
		t.Errorf("stdout:\n%s", out)
	}
}

// -backend svc -svc-url plays every session's decisions against an
// external decision service.
func TestSvcBackend(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := abrsvc.New(abrsvc.Config{Registry: reg}).Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	report := filepath.Join(t.TempDir(), "svc.json")
	code, out, errs := runCmd(context.Background(), "-backend", "svc", "-svc-url", srv.URL(), "-sessions", "4", "-report", report)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	if want := "scenario \"svc-demo\": 4 sessions in 2 populations on the svc backend (seed 1)\n"; !strings.HasPrefix(out, want) {
		t.Errorf("stdout starts %q, want %q", out, want)
	}
	if got := readReport(t, report); got["fastmpc"] != 2 || got["robustmpc"] != 2 {
		t.Errorf("report completed %v, want 2 per population", got)
	}
	// Four sessions of the 65-chunk demo video each ask for every chunk.
	if n := decisions(t, reg); n < 4*65 {
		t.Errorf("the service answered %d decisions, want at least %d", n, 4*65)
	}
}

// decisions sums the service's decision counter over its labels.
func decisions(t *testing.T, reg *obs.Registry) int {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	total := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, abrsvc.MetricDecisionsTotal) {
			continue
		}
		n, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		total += n
	}
	return total
}

func TestRunErrors(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-h"}, 0, "Usage of fleet"},
		{[]string{"-workers", "2"}, 2, "flag provided but not defined: -workers"},
		{[]string{"-sessions", "4", "-backend", "carrier-pigeon"}, 1, "fleet: unknown backend \"carrier-pigeon\"\n"},
		{[]string{"-scenario", filepath.Join(t.TempDir(), "missing.json")}, 1, "fleet: open "},
	} {
		code, _, errs := runCmd(context.Background(), c.args...)
		if code != c.code || !strings.HasPrefix(errs, c.stderr) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d with %q", c.args, code, errs, c.code, c.stderr)
		}
	}
}
