package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

// A 5-chunk BB session with every export and a live metrics endpoint:
// the flags reach the session, each file holds its 5 chunks, and the
// metrics listener is closed once run returns.
func TestRunExports(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "s.json")
	csvPath := filepath.Join(dir, "s.csv")
	tracePath := filepath.Join(dir, "s.trace.json")
	code, out, errs := runCmd(t, "-chunks", "5", "-alg", "BB", "-metrics-addr", "127.0.0.1:0",
		"-json", jsonPath, "-csv", csvPath, "-trace-out", tracePath)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	for _, want := range []string{
		"algorithm     BB\n",
		"trace         fcc-1 ",
		"session JSON written to " + jsonPath + "\n",
		"per-chunk CSV written to " + csvPath + "\n",
		"trace written to " + tracePath,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}

	var session struct {
		Algorithm string            `json:"algorithm"`
		Chunks    []json.RawMessage `json:"chunks"`
	}
	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &session); err != nil {
		t.Fatal(err)
	}
	if session.Algorithm != "BB" || len(session.Chunks) != 5 {
		t.Errorf("JSON export: algorithm %q with %d chunks, want BB with 5", session.Algorithm, len(session.Chunks))
	}
	b, err = os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(string(b), "\n"); rows != 6 {
		t.Errorf("CSV export has %d lines, want a header and 5 chunks", rows)
	}
	b, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b) || !bytes.Contains(b, []byte("BB session")) {
		t.Errorf("trace export is not a Chrome trace of the BB session: %.200s", b)
	}

	m := regexp.MustCompile(`metrics at http://([^/]+)/metrics`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no metrics address on stdout:\n%s", out)
	}
	// The listener closes on a goroutine of its own once run's context
	// ends, so allow it a moment.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		c, err := net.Dial("tcp", m[1])
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatalf("metrics listener %s still accepts after run returned", m[1])
		}
	}
}

// A text trace whose samples last different times plays as written.
func TestRunNonUniformTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.txt")
	if err := os.WriteFile(path, []byte("2 1000\n5 2000\n1 500\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errs := runCmd(t, "-trace", path, "-chunks", "5", "-verbose")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	// (2·1000 + 5·2000 + 1·500) / 8 s = 1562.5 kbps.
	if want := "trace         " + path + " (mean 1562 kbps"; !strings.Contains(out, want) {
		t.Errorf("stdout lacks %q:\n%s", want, out)
	}
	if !strings.Contains(out, "\n    4 ") || strings.Contains(out, "\n    5 ") {
		t.Errorf("-verbose log is not chunks 0–4:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-h"}, 0, "Usage of mpcdash"},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-chunks", "five"}, 2, "invalid value"},
		{[]string{"-chunks", "5", "-alg", "nope"}, 1, "mpcdash: unknown algorithm \"nope\"\n"},
		{[]string{"-chunks", "5", "-dataset", "lte"}, 1, "mpcdash: unknown dataset \"lte\""},
		{[]string{"-trace", filepath.Join(t.TempDir(), "missing.txt")}, 1, "mpcdash: open "},
	} {
		code, out, errs := runCmd(t, c.args...)
		if code != c.code || !strings.Contains(errs, c.stderr) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d with %q", c.args, code, errs, c.code, c.stderr)
		}
		if c.code != 0 && out != "" {
			t.Errorf("%q: failed run wrote stdout %q", c.args, out)
		}
	}
}
