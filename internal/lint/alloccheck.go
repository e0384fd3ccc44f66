package lint

// The //mpc:noalloc contract has one static enforcement: the annotation
// inventory reconciled against gc's own escape analysis (-gcflags=-m), so
// the default mpclint run fails when the compiler heap-allocates inside
// any annotated line range, whatever the construct looked like. Growth
// the compiler does not report (a growing append) is the runtime
// witnesses' job: testing.AllocsPerRun == 0 tests on every annotated root.

import (
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// noAllocMarker is the annotation contract: a function whose doc comment
// group contains this directive promises zero heap allocations per call in
// steady state.
const noAllocMarker = "mpc:noalloc"

// NoAllocFunc locates one annotated function for the escape-analysis
// cross-check: any compiler "escapes to heap"/"moved to heap" message
// positioned within [StartLine, EndLine] of File is a contract violation.
type NoAllocFunc struct {
	Name      string // package-qualified, e.g. "core.(*Optimizer).PlanScratch"
	File      string
	StartLine int
	EndLine   int
}

// NoAllocInventory lists every //mpc:noalloc function in pkgs, sorted by
// file then start line.
func NoAllocInventory(pkgs []*Package) []NoAllocFunc {
	var out []NoAllocFunc
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hasNoAllocMarker(fd) {
					continue
				}
				start := pkg.Fset.Position(fd.Pos())
				end := pkg.Fset.Position(fd.End())
				out = append(out, NoAllocFunc{
					Name:      pkg.Name + "." + funcDisplayName(fd),
					File:      start.Filename,
					StartLine: start.Line,
					EndLine:   end.Line,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].StartLine < out[j].StartLine
	})
	return out
}

func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	star := ""
	if se, ok := recv.(*ast.StarExpr); ok {
		star, recv = "*", se.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return "(" + star + id.Name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

func hasNoAllocMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), noAllocMarker) {
			return true
		}
	}
	return false
}

// EscapeSite is one heap-allocation decision reported by the compiler.
type EscapeSite struct {
	File    string // absolute path
	Line    int
	Col     int
	Message string // e.g. "&Table{...} escapes to heap"
}

// ParseEscapes extracts heap-allocation sites from `go build -gcflags=-m`
// diagnostic output. Only messages that mean "this allocates on the heap"
// are kept: "escapes to heap" and "moved to heap". Inlining notes,
// "leaking param" flow facts and "does not escape" proofs are dropped.
//
// A position is resolved through the "# importpath" header above it and
// dirs (import path → package directory), keeping only the file's base
// name: the go command prints positions relative to the directory of the
// build that first filled the build cache, which need not be this one.
// Sites under a package missing from dirs are dropped.
func ParseEscapes(out string, dirs map[string]string) []EscapeSite {
	var sites []EscapeSite
	dir := ""
	for _, line := range strings.Split(out, "\n") {
		msg := strings.TrimSpace(line)
		if pkg, ok := strings.CutPrefix(msg, "# "); ok {
			dir = dirs[pkg]
			continue
		}
		if dir == "" || (!strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap")) {
			continue
		}
		// file.go:line:col: message
		file, rest, ok := strings.Cut(msg, ":")
		if !ok {
			continue
		}
		lineStr, rest, ok := strings.Cut(rest, ":")
		if !ok {
			continue
		}
		colStr, text, ok := strings.Cut(rest, ":")
		if !ok {
			continue
		}
		ln, err1 := strconv.Atoi(lineStr)
		col, err2 := strconv.Atoi(colStr)
		if err1 != nil || err2 != nil {
			continue
		}
		sites = append(sites, EscapeSite{
			File:    filepath.Join(dir, filepath.Base(file)),
			Line:    ln,
			Col:     col,
			Message: strings.TrimSpace(text),
		})
	}
	return sites
}

// AllocCheck reconciles the annotation inventory with the compiler's
// escape sites: every site inside an annotated function's line range is a
// contract violation, reported under check "alloccheck". //lint:allow does
// not apply here by design — the escape hatch for an intentionally
// allocating path is moving it out of the annotated function, not
// suppressing the compiler.
func AllocCheck(inventory []NoAllocFunc, sites []EscapeSite) []Diagnostic {
	var diags []Diagnostic
	for _, site := range sites {
		for _, fn := range inventory {
			if site.File == fn.File && site.Line >= fn.StartLine && site.Line <= fn.EndLine {
				diags = append(diags, Diagnostic{
					File:    site.File,
					Line:    site.Line,
					Col:     site.Col,
					Check:   "alloccheck",
					Message: fmt.Sprintf("compiler escape analysis contradicts //mpc:noalloc on %s: %s", fn.Name, site.Message),
				})
				break
			}
		}
	}
	return diags
}

// BuildEscapes runs `go build -gcflags=-m` on pkgs, discarding any
// binary, and parses the diagnostics. The -m output lands on stderr; a
// cached build replays the stored compiler output, so repeat runs stay
// cheap and non-vacuous. On a failed build the error carries the compiler
// output.
func BuildEscapes(pkgs []*Package) ([]EscapeSite, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	args := []string{"build", "-o", os.DevNull, "-gcflags=-m"}
	dirs := map[string]string{}
	for _, pkg := range pkgs {
		args = append(args, pkg.Dir)
		dirs[pkg.Path] = pkg.Dir
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = pkgs[0].Dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out)
	}
	return ParseEscapes(string(out), dirs), nil
}

// escapeCheck reconciles the //mpc:noalloc functions of pkgs against the
// compiler's escape analysis of the packages that declare them. It builds
// nothing when pkgs carry no annotation.
func escapeCheck(pkgs []*Package) ([]Diagnostic, error) {
	var annotated []*Package
	var inventory []NoAllocFunc
	for _, pkg := range pkgs {
		if fns := NoAllocInventory([]*Package{pkg}); len(fns) > 0 {
			annotated = append(annotated, pkg)
			inventory = append(inventory, fns...)
		}
	}
	sites, err := BuildEscapes(annotated)
	if err != nil {
		return nil, err
	}
	return AllocCheck(inventory, sites), nil
}
