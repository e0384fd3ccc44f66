// Command mpclint runs the repo's project-specific static analyzers: the
// determinism, float-safety, goroutine-leak and lock-scope invariants the
// paper reproduction depends on and no test can hold (DESIGN.md §4e,
// §4h). When the loaded packages carry //mpc:noalloc
// annotations, the same run reconciles them against `go build
// -gcflags=-m` escape analysis (check "alloccheck").
//
// Usage:
//
//	mpclint [-json] [-list] [packages...]
//
// Packages default to ./... relative to the enclosing module root. All
// findings form one position-sorted stream. Exit status: 0 clean, 1
// findings, 2 usage, load or build failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mpcdash/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	list := fs.Bool("list", false, "list available checks and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "mpclint:", err)
		return 2
	}
	root, module, err := findModule(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "mpclint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// Resolve cwd-relative patterns to absolute so running from a subdir
	// works; Load maps them back to import paths under the module root.
	for i, p := range patterns {
		trimmed := strings.TrimSuffix(p, "/...")
		if !filepath.IsAbs(trimmed) {
			patterns[i] = filepath.Join(cwd, p)
		}
	}

	pkgs, err := lint.Load(lint.LoadConfig{Dir: root, ModulePath: module, Patterns: patterns})
	if err != nil {
		fmt.Fprintln(stderr, "mpclint:", err)
		return 2
	}
	for _, pkg := range pkgs {
		for i, terr := range pkg.TypeErrors {
			if i == 3 {
				fmt.Fprintf(stderr, "mpclint: note: %s: further type errors omitted\n", pkg.Path)
				break
			}
			fmt.Fprintf(stderr, "mpclint: note: %s: %v\n", pkg.Path, terr)
		}
	}

	diags, err := lint.Check(pkgs)
	if err != nil {
		fmt.Fprintln(stderr, "mpclint:", err)
		return 2
	}
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "mpclint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, module string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}
