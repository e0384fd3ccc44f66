package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot(t *testing.T) (dir, module string) {
	t.Helper()
	d, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest)
				}
			}
			t.Fatalf("%s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			t.Fatal("no go.mod above working directory")
		}
		d = parent
	}
}

// TestRepoLintClean self-applies the default mpclint run (lint.Check: every
// analyzer plus the //mpc:noalloc escape reconciliation) to the real
// module source in-process and requires zero unsuppressed findings. It
// puts the lint gate inside tier-1: `go test ./...` alone catches a lint
// regression even when `make lint` is never run.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module and runs go build -gcflags=-m")
	}
	root, module := moduleRoot(t)
	pkgs, err := Load(LoadConfig{Dir: root, ModulePath: module})
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("load module: no packages")
	}
	diags, err := Check(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unsuppressed finding: %s", d)
	}
	if len(diags) > 0 {
		t.Logf("fix the findings or annotate intentional ones with //lint:allow <check> <reason>")
	}
}

// TestModuleStdlibOnly holds the no-dependency policy: go.mod requires no
// module, so any non-stdlib import fails go build, and no package uses cgo,
// which would tie results to the host C toolchain.
func TestModuleStdlibOnly(t *testing.T) {
	root, _ := moduleRoot(t)
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "require" {
			t.Errorf("go.mod:%d: %q; the module is dependency-free", i+1, line)
		}
	}
	cmd := exec.Command("go", "list", "-f", "{{.ImportPath}} {{.CgoFiles}}", "./...")
	cmd.Dir = root
	// With cgo disabled (the default without a C compiler) go list files
	// cgo sources under IgnoredGoFiles; enabled, it reports them.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if !strings.HasSuffix(line, " []") {
			t.Errorf("cgo files in %s; the module must build without a C toolchain", line)
		}
	}
}

// TestNoAllocInventoryCovers pins the //mpc:noalloc annotation roster on
// the real tree: the documented hot-path functions must all carry the
// contract, so dropping an annotation (silently widening the allocation
// budget) fails here rather than in a benchmark weeks later.
func TestNoAllocInventoryCovers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, module := moduleRoot(t)
	pkgs, err := Load(LoadConfig{Dir: root, ModulePath: module})
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	got := map[string]bool{}
	for _, fn := range NoAllocInventory(pkgs) {
		got[fn.Name] = true
		if fn.StartLine <= 0 || fn.EndLine < fn.StartLine {
			t.Errorf("%s: bad line range %d-%d", fn.Name, fn.StartLine, fn.EndLine)
		}
	}
	want := []string{
		"core.(*Optimizer).Plan",
		"core.(*Optimizer).PlanScratch",
		"core.(*Optimizer).FirstLevels",
		"core.(*Optimizer).search",
		"fastmpc.(BinSpec).BufferBin",
		"fastmpc.(BinSpec).RateBin",
		"fastmpc.clampBin",
		"fastmpc.(*Table).index",
		"fastmpc.(*Table).Lookup",
		"fastmpc.(*CompressedTable).at",
		"fastmpc.(*CompressedTable).Lookup",
		"abrsvc.lastSample",
	}
	for _, name := range want {
		if !got[name] {
			t.Errorf("expected //mpc:noalloc on %s; inventory has %v", name, got)
		}
	}
}
