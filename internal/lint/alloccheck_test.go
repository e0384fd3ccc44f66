package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// syntheticM mixes position forms the way a replayed build cache does:
// module-root-relative, relative to some other build directory, and bare
// base names. The header above a line, not its path, names the package.
const syntheticM = `# mpcdash/internal/fastmpc
internal/fastmpc/table.go:57:6: can inline BinSpec.BufferBin
internal/fastmpc/table.go:139:7: &Table{...} escapes to heap
../fastmpc/table.go:142:16: make([]uint8, n) escapes to heap
internal/fastmpc/rle.go:60:2: leaking param: c to result ~r0 level=1
./rle.go:75:13: moved to heap: lo
internal/fastmpc/rle.go:90:3: buf does not escape
not a position line
# mpcdash/internal/core
optimizer.go:100:14: s escapes to heap
# mpcdash/internal/unlisted
internal/unlisted/x.go:3:1: y escapes to heap
`

var syntheticDirs = map[string]string{
	"mpcdash/internal/fastmpc": "/mod/internal/fastmpc",
	"mpcdash/internal/core":    "/mod/internal/core",
}

func TestParseEscapes(t *testing.T) {
	sites := ParseEscapes(syntheticM, syntheticDirs)
	want := []EscapeSite{
		{File: "/mod/internal/fastmpc/table.go", Line: 139, Col: 7, Message: "&Table{...} escapes to heap"},
		{File: "/mod/internal/fastmpc/table.go", Line: 142, Col: 16, Message: "make([]uint8, n) escapes to heap"},
		{File: "/mod/internal/fastmpc/rle.go", Line: 75, Col: 13, Message: "moved to heap: lo"},
		{File: "/mod/internal/core/optimizer.go", Line: 100, Col: 14, Message: "s escapes to heap"},
	}
	if len(sites) != len(want) {
		t.Fatalf("got %d sites, want %d: %+v", len(sites), len(want), sites)
	}
	for i := range want {
		if sites[i] != want[i] {
			t.Errorf("site %d: got %+v, want %+v", i, sites[i], want[i])
		}
	}
}

func TestAllocCheckMatching(t *testing.T) {
	inventory := []NoAllocFunc{
		{Name: "fastmpc.(*CompressedTable).at", File: "/mod/internal/fastmpc/rle.go", StartLine: 70, EndLine: 85},
		{Name: "core.(*Optimizer).PlanScratch", File: "/mod/internal/core/optimizer.go", StartLine: 96, EndLine: 180},
	}
	sites := ParseEscapes(syntheticM, syntheticDirs)
	diags := AllocCheck(inventory, sites)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %+v", len(diags), diags)
	}
	// rle.go:75 falls inside at's 70-85 range; optimizer.go:100 inside
	// PlanScratch's 96-180. The table.go sites match no annotated range.
	if diags[0].Line != 75 || !strings.Contains(diags[0].Message, "fastmpc.(*CompressedTable).at") {
		t.Errorf("unexpected first diagnostic: %+v", diags[0])
	}
	if diags[1].Line != 100 || !strings.Contains(diags[1].Message, "core.(*Optimizer).PlanScratch") {
		t.Errorf("unexpected second diagnostic: %+v", diags[1])
	}
	for _, d := range diags {
		if d.Check != "alloccheck" {
			t.Errorf("check = %q, want alloccheck", d.Check)
		}
	}
}

func TestAllocCheckBoundaries(t *testing.T) {
	inv := []NoAllocFunc{{Name: "p.f", File: "/m/a.go", StartLine: 10, EndLine: 20}}
	for _, tc := range []struct {
		line int
		hit  bool
	}{{9, false}, {10, true}, {20, true}, {21, false}} {
		d := AllocCheck(inv, []EscapeSite{{File: "/m/a.go", Line: tc.line, Message: "x escapes to heap"}})
		if (len(d) == 1) != tc.hit {
			t.Errorf("line %d: hit=%v, want %v", tc.line, len(d) == 1, tc.hit)
		}
	}
	// Same lines, different file: never a hit.
	if d := AllocCheck(inv, []EscapeSite{{File: "/m/b.go", Line: 15, Message: "x escapes to heap"}}); len(d) != 0 {
		t.Errorf("cross-file match: %+v", d)
	}
}

// TestBuildEscapesReal smoke-tests the go build plumbing on one real
// package and checks positions resolve to absolute paths.
func TestBuildEscapesReal(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the compiler")
	}
	root, module := moduleRoot(t)
	pkgs, err := Load(LoadConfig{Dir: root, ModulePath: module, Patterns: []string{"internal/fastmpc"}})
	if err != nil {
		t.Fatal(err)
	}
	sites, err := BuildEscapes(pkgs)
	if err != nil {
		t.Fatalf("BuildEscapes: %v", err)
	}
	if len(sites) == 0 {
		t.Fatal("expected escape sites in fastmpc (Build/Compress allocate); -m output may not have reached the compiler")
	}
	for _, s := range sites {
		if filepath.Dir(s.File) != pkgs[0].Dir {
			t.Errorf("site file %q does not resolve into %s", s.File, pkgs[0].Dir)
		}
	}
}
