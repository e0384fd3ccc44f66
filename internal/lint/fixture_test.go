package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts `// want "regexp"` and `// want `+"`regexp`"+“ expectation
// comments from fixture source lines.
var wantRe = regexp.MustCompile("// want (?:\"([^\"]*)\"|`([^`]*)`)")

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants scans every .go file under root for want comments, keyed by
// absolute file path and line.
func collectWants(t *testing.T, root string) map[string][]*expectation {
	t.Helper()
	wants := map[string][]*expectation{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		abs, err := filepath.Abs(p)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				pat := m[1]
				if pat == "" {
					pat = m[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return fmt.Errorf("%s:%d: bad want pattern %q: %v", p, i+1, pat, err)
				}
				key := fmt.Sprintf("%s:%d", abs, i+1)
				wants[key] = append(wants[key], &expectation{re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

func loadFixture(t *testing.T, fixture string) []*Package {
	t.Helper()
	root := filepath.Join("testdata", "src", fixture)
	pkgs, err := Load(LoadConfig{Dir: root, ModulePath: "mpcdash"})
	if err != nil {
		t.Fatalf("load %s: %v", fixture, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("load %s: no packages", fixture)
	}
	return pkgs
}

// matchWants matches findings against the want comments under root: every
// want must be hit and every finding must be wanted, which also proves the
// suppression and scoping negative cases (their lines carry no want).
func matchWants(t *testing.T, diags []Diagnostic, root string) {
	t.Helper()
	wants := collectWants(t, root)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched, found = true, true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: want %q not reported", key, w.re)
			}
		}
	}
}

// TestFixtures runs each analyzer over its golden fixture tree, and the
// escape-analysis reconciliation over the noalloc tree, matching findings
// against the inline want comments.
func TestFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			matchWants(t, Run(loadFixture(t, a.Name), []*Analyzer{a}), filepath.Join("testdata", "src", a.Name))
		})
	}
	t.Run("noalloc", func(t *testing.T) {
		if testing.Short() {
			t.Skip("invokes the compiler")
		}
		// Loaded under the real module root, so the import paths match the
		// package headers of go build's -m output.
		root, module := moduleRoot(t)
		dir, err := filepath.Abs(filepath.Join("testdata", "src", "noalloc"))
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := Load(LoadConfig{Dir: root, ModulePath: module, Patterns: []string{dir + "/..."}})
		if err != nil {
			t.Fatal(err)
		}
		diags, err := escapeCheck(pkgs)
		if err != nil {
			t.Fatal(err)
		}
		matchWants(t, diags, dir)
	})
}

// TestDirectiveDiagnostics checks that malformed //lint:allow directives,
// and well-formed ones that suppress nothing, are themselves reported, and
// that a live directive is not.
func TestDirectiveDiagnostics(t *testing.T) {
	pkgs := loadFixture(t, "lintdirective")
	if diags := Run(pkgs, nil); len(diags) != 3 {
		t.Errorf("with no analyzer run, only the 3 malformed directives are findings; got %v", diags)
	}
	diags := Run(pkgs, Analyzers())
	want := map[int]string{
		3:  "needs a one-line reason",
		6:  `unknown check "madeupcheck"`,
		9:  "needs a check name and a reason",
		12: "floateq suppresses nothing",
	}
	for _, d := range diags {
		if d.Check != "lintdirective" {
			t.Errorf("unexpected check %q in %s", d.Check, d)
			continue
		}
		msg, ok := want[d.Line]
		if !ok {
			t.Errorf("unexpected directive finding: %s", d)
			continue
		}
		if !strings.Contains(d.Message, msg) {
			t.Errorf("line %d: got %q, want substring %q", d.Line, d.Message, msg)
		}
		delete(want, d.Line)
	}
	for line, msg := range want {
		t.Errorf("missing directive finding at line %d (%s)", line, msg)
	}
}

// TestSuppressionScope pins the suppression rule: a directive covers its
// own line and the line directly below, nothing else.
func TestSuppressionScope(t *testing.T) {
	pkgs := loadFixture(t, "nodeterminism")
	diags := Run(pkgs, []*Analyzer{NoDeterminism})
	for _, d := range diags {
		if strings.Contains(d.File, "a.go") && d.Line > 25 {
			t.Errorf("suppressed finding leaked: %s", d)
		}
	}
}
