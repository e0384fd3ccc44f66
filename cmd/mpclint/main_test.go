package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func smokeDir(t *testing.T, parts ...string) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join(append([]string{"..", "..", "internal", "lint", "testdata", "smoke"}, parts...)...))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// TestSmokeCleanTree asserts exit 0 and empty output on a violation-free
// fixture tree.
func TestSmokeCleanTree(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{smokeDir(t, "clean") + "/..."}, &out, &errb)
	if code != 0 {
		t.Fatalf("clean tree: exit %d, stdout=%q stderr=%q", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean tree: unexpected output %q", out.String())
	}
}

// TestSmokeDirtyTree asserts exit 1 and that the documented -json schema
// names the file, line, and check for each finding.
func TestSmokeDirtyTree(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", smokeDir(t, "dirty") + "/..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("dirty tree: exit %d, stdout=%q stderr=%q", code, out.String(), errb.String())
	}
	var diags []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Check   string `json:"check"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, out.String())
	}
	checks := map[string]bool{}
	for _, d := range diags {
		if !strings.HasSuffix(d.File, filepath.Join("dirty", "core", "a.go")) || d.Line == 0 || d.Check == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
		checks[d.Check] = true
	}
	if !checks["nodeterminism"] || !checks["floateq"] {
		t.Errorf("dirty tree should trip nodeterminism and floateq, got %v", checks)
	}
}

// TestHumanOutput pins the file:line:col: [check] message format.
func TestHumanOutput(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{smokeDir(t, "dirty") + "/..."}, &out, &errb); code != 1 {
		t.Fatalf("exit %d", code)
	}
	first := strings.SplitN(out.String(), "\n", 2)[0]
	if !strings.Contains(first, "a.go:") || !strings.Contains(first, "[") {
		t.Fatalf("unexpected human format: %q", first)
	}
}

// TestListChecks asserts -list names every analyzer.
func TestListChecks(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, name := range []string{"nodeterminism", "floateq", "ctxleak", "lockscope"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list missing %s", name)
		}
	}
}

// TestListGolden pins the exact -list output — name column plus one-line
// description per check — so the suite roster and its docs cannot drift
// silently. Regenerate with: go run ./cmd/mpclint -list > testdata/list.golden
func TestListGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr=%q", code, errb.String())
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "list.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(golden) {
		t.Errorf("-list output drifted from testdata/list.golden:\n--- got ---\n%s--- want ---\n%s", out.String(), golden)
	}
}

// TestAllocCheckClean runs the default mode against the real module: the
// analyzers plus the escape-analysis reconciliation of every
// //mpc:noalloc function must exit 0 with no output — the same run CI's
// lint job and `make lint` perform.
func TestAllocCheckClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and runs go build -gcflags=-m")
	}
	var out, errb bytes.Buffer
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if code := run([]string{root + "/..."}, &out, &errb); code != 0 || out.Len() != 0 {
		t.Fatalf("mpclint ./...: exit %d\nstdout=%s\nstderr=%s", code, out.String(), errb.String())
	}
}
