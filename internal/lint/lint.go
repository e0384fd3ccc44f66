// Package lint is mpcdash's project-specific static-analysis suite. It
// enforces, at compile time, the invariants the paper reproduction depends
// on at run time and that no test can hold: deterministic packages stay
// wall-clock- and global-rand-free (nodeterminism), QoE/bitrate arithmetic
// never relies on exact float equality (floateq), orchestration goroutines
// keep a cancellation path (ctxleak), and mutex critical sections never
// block or leak (lockscope). Check adds the compiler-side contract:
// //mpc:noalloc functions contain no site that gc's escape analysis
// heap-allocates (alloccheck).
//
// Findings are suppressed with a directive comment carrying a reason:
//
//	expensive := time.Now() //lint:allow nodeterminism measurement only, not a decision input
//
// A directive suppresses matching findings on its own line and on the line
// directly below it, so it can trail the offending statement or sit on the
// preceding line. Directives without a reason, naming an unknown check, or
// suppressing nothing when their check ran are themselves reported (check
// "lintdirective") so suppressions stay auditable and none goes stale.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at file:line:col.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (package, analyzer) pairing and collects reports.
type Pass struct {
	Pkg   *Package
	check string
	out   *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.out = append(*p.out, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{NoDeterminism, FloatEq, CtxLeak, LockScope}
}

// Check is the default mpclint run: every analyzer over pkgs plus, when
// they carry //mpc:noalloc annotations, the escape-analysis reconciliation
// of the annotated packages (AllocCheck), as one position-sorted stream.
func Check(pkgs []*Package) ([]Diagnostic, error) {
	escapes, err := escapeCheck(pkgs)
	if err != nil {
		return nil, err
	}
	diags := append(Run(pkgs, Analyzers()), escapes...)
	sortDiagnostics(diags)
	return diags, nil
}

func knownCheck(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// allowKey identifies a suppressed (file, line, check) coordinate.
type allowKey struct {
	file  string
	line  int
	check string
}

const allowPrefix = "lint:allow"

// collectAllows scans a package's files for well-formed //lint:allow
// directives, mapping each to its column. Malformed directives (missing
// reason, unknown check) are reported as "lintdirective" findings so the
// suppression inventory stays honest.
func collectAllows(pkg *Package, out *[]Diagnostic) map[allowKey]int {
	allows := map[allowKey]int{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				check, reason, _ := strings.Cut(rest, " ")
				report := func(format string, args ...any) {
					*out = append(*out, Diagnostic{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Check:   "lintdirective",
						Message: fmt.Sprintf(format, args...),
					})
				}
				switch {
				case check == "":
					report("//lint:allow needs a check name and a reason")
				case !knownCheck(check):
					report("//lint:allow names unknown check %q", check)
				case strings.TrimSpace(reason) == "":
					report("//lint:allow %s needs a one-line reason", check)
				default:
					allows[allowKey{pos.Filename, pos.Line, check}] = pos.Column
				}
			}
		}
	}
	return allows
}

// Run applies analyzers to pkgs, filters suppressed findings, and returns
// the remainder sorted by position for deterministic output. A directive
// whose check ran but which suppressed nothing is reported as stale.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		allows := collectAllows(pkg, &diags)
		ran := map[string]bool{}
		for _, a := range analyzers {
			ran[a.Name] = true
			a.Run(&Pass{Pkg: pkg, check: a.Name, out: &raw})
		}
		used := map[allowKey]bool{}
		for _, d := range raw {
			// A directive suppresses its own line (trailing comment) and the
			// line below it (directive on the preceding line).
			k := allowKey{d.File, d.Line, d.Check}
			if _, ok := allows[k]; !ok {
				k.line--
			}
			if _, ok := allows[k]; ok {
				used[k] = true
				continue
			}
			diags = append(diags, d)
		}
		for k, col := range allows {
			if ran[k.check] && !used[k] {
				diags = append(diags, Diagnostic{
					File: k.file, Line: k.line, Col: col,
					Check:   "lintdirective",
					Message: fmt.Sprintf("//lint:allow %s suppresses nothing; delete it", k.check),
				})
			}
		}
	}
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders findings by position, then check, for
// deterministic output.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
}
