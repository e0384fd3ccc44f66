package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

// Generate two one-minute HSDPA traces into a directory, then inspect
// one of them.
func TestGenerateThenInspect(t *testing.T) {
	dir := t.TempDir()
	code, out, errs := runCmd(t, "-dataset", "HSDPA", "-count", "2", "-duration", "60", "-out", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	if want := "HSDPA dataset: 2 traces × 60s\n"; !strings.HasPrefix(out, want) {
		t.Errorf("stdout starts %q, want %q", out, want)
	}
	if !strings.Contains(out, "mean throughput: n=2 ") || !strings.HasSuffix(out, "written to "+dir+"/\n") {
		t.Errorf("stdout:\n%s", out)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil || len(files) != 2 {
		t.Fatalf("wrote %v (%v), want 2 trace files", files, err)
	}

	code, out, errs = runCmd(t, "-inspect", files[0])
	if code != 0 {
		t.Fatalf("-inspect: exit %d, stderr %q", code, errs)
	}
	for _, want := range []string{
		"trace " + filepath.Base(files[0]) + "\n",
		"  samples:   60\n", // HSDPA samples every second
		"  duration:  60.0 s\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-inspect stdout lacks %q:\n%s", want, out)
		}
	}
}

func TestRunErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("1 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-help"}, 0, "Usage of tracegen"},
		{[]string{"-count"}, 2, "flag needs an argument"},
		{[]string{"-dataset", "lte"}, 1, "tracegen: unknown dataset \"lte\" (have fcc, hsdpa, synthetic)\n"},
		{[]string{"-inspect", bad}, 1, "tracegen: trace \"bad.txt\" line 1"},
	} {
		code, _, errs := runCmd(t, c.args...)
		if code != c.code || !strings.Contains(errs, c.stderr) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d with %q", c.args, code, errs, c.code, c.stderr)
		}
	}
}
