package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	return runCmdCtx(context.Background(), args...)
}

func runCmdCtx(ctx context.Context, args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(ctx, args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestFig7(t *testing.T) {
	code, out, errs := runCmd(t, "-fig", "7", "-traces", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	want := "=== Figure 7 (traces=2 seed=42) ===\nFigure 7: dataset characteristics (2 traces each)\n"
	if !strings.HasPrefix(out, want) || !strings.HasSuffix(out, "\n\n") || strings.Contains(out, "=== Figure 8") {
		t.Errorf("stdout is not Figure 7 alone at 2 traces:\n%s", out)
	}
	if !strings.HasPrefix(errs, "--- Figure 7 done in ") {
		t.Errorf("stderr %q, want the run time", errs)
	}
}

// Timings vary run to run, so they go to stderr and stdout stays
// deterministic.
func TestTimingsOnStderr(t *testing.T) {
	code, out, errs := runCmd(t, "-fig", "overhead", "-traces", "1", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	if !strings.HasPrefix(out, "=== Overhead (traces=1 seed=7) ===\n") || strings.Contains(out, "per decision") {
		t.Errorf("stdout:\n%s", out)
	}
	if !strings.Contains(errs, "overhead: FastMPC ") || !strings.Contains(errs, " per decision\n") {
		t.Errorf("stderr lacks the per-decision timings:\n%s", errs)
	}
}

func TestUnknownFig(t *testing.T) {
	code, out, errs := runCmd(t, "-fig", "13")
	if code != 2 || out != "" {
		t.Fatalf("exit %d, stdout %q; want exit 2 and no output", code, out)
	}
	if want := "experiments: unknown experiment \"13\" (have 7, 8,"; !strings.HasPrefix(errs, want) {
		t.Errorf("stderr %q, want prefix %q", errs, want)
	}
	if code, _, _ := runCmd(t, "-traces", "two"); code != 2 {
		t.Errorf("bad -traces: exit %d, want 2", code)
	}
}

// cancelOnWrite is a stdout that ends its context at the first write.
type cancelOnWrite struct {
	bytes.Buffer
	cancel context.CancelCauseFunc
}

func (w *cancelOnWrite) Write(p []byte) (int, error) {
	w.cancel(errors.New("terminated"))
	return w.Buffer.Write(p)
}

// A stop ends the catalog once the entry in progress is done, with exit
// status 130; a context that has already ended runs no entry.
func TestStopBetweenEntries(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	out := &cancelOnWrite{cancel: cancel}
	var errb bytes.Buffer
	if code := run(ctx, []string{"-traces", "2"}, out, &errb); code != 130 {
		t.Fatalf("exit %d, stderr %q; want 130", code, errb.String())
	}
	if s := out.String(); !strings.HasPrefix(s, "=== Figure 7 ") || !strings.HasSuffix(s, "\n\n") || strings.Contains(s, "=== Figure 8") {
		t.Errorf("stdout is not Figure 7 alone:\n%s", s)
	}
	if want := "experiments: terminated received, stopping before Figure 8\n"; !strings.Contains(errb.String(), want) {
		t.Errorf("stderr %q lacks %q", errb.String(), want)
	}

	ctx, cancel = context.WithCancelCause(context.Background())
	cancel(errors.New("interrupt"))
	code, stdout, stderr := runCmdCtx(ctx, "-fig", "7")
	if code != 130 || stdout != "" {
		t.Fatalf("exit %d, stdout %q; want 130 and no output", code, stdout)
	}
	if want := "experiments: interrupt received, stopping before Figure 7\n"; stderr != want {
		t.Errorf("stderr %q, want %q", stderr, want)
	}
}
