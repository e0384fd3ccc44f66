package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked module package plus the syntax the analyzers
// need: full ASTs for its non-test files. Test files are not loaded.
type Package struct {
	Path       string // import path, e.g. "mpcdash/internal/core"
	Name       string // package name
	Dir        string // absolute directory
	Fset       *token.FileSet
	Files      []*ast.File // non-test files, full parse with comments
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error // collected, tolerated: analyses are best-effort on broken code
}

// LoadConfig describes what to load.
type LoadConfig struct {
	Dir        string   // module root (absolute or relative)
	ModulePath string   // module import path from go.mod
	Patterns   []string // package dirs relative to Dir, or absolute; "..." suffix recurses
}

// Load parses and type-checks the packages matched by cfg.Patterns.
// Module-internal imports are type-checked from source recursively; all
// other imports resolve through compiler export data located with a single
// `go list -export -deps` invocation. Type errors are collected per package
// rather than aborting, so fixture trees with deliberate violations still
// analyze.
func Load(cfg LoadConfig) ([]*Package, error) {
	dir, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	ld := &loader{
		dir:     dir,
		module:  cfg.ModulePath,
		fset:    token.NewFileSet(),
		raw:     map[string]*rawPkg{},
		checked: map[string]*Package{},
		busy:    map[string]bool{},
	}
	dirs, err := ld.expand(cfg.Patterns)
	if err != nil {
		return nil, err
	}
	var roots []string
	for _, d := range dirs {
		ip, err := ld.importPath(d)
		if err != nil {
			return nil, err
		}
		if _, err := ld.parse(ip, d); err != nil {
			return nil, err
		}
		roots = append(roots, ip)
	}
	// Parse the whole module-internal import closure up front so the
	// external import set is complete before go list runs.
	if err := ld.parseClosure(roots); err != nil {
		return nil, err
	}
	if err := ld.importExternals(); err != nil {
		return nil, err
	}
	var pkgs []*Package
	seen := map[string]bool{}
	for _, ip := range roots {
		if seen[ip] {
			continue
		}
		seen[ip] = true
		pkgs = append(pkgs, ld.check(ip))
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

type rawPkg struct {
	dir   string
	name  string
	files []*ast.File
}

type loader struct {
	dir     string // module root, absolute
	module  string
	fset    *token.FileSet
	raw     map[string]*rawPkg
	checked map[string]*Package
	busy    map[string]bool // cycle guard
	imp     types.Importer  // gc export-data importer for non-module paths
}

// expand resolves patterns to absolute package directories.
func (l *loader) expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	for _, p := range patterns {
		recursive := false
		if p == "..." {
			p, recursive = ".", true
		} else if strings.HasSuffix(p, "/...") {
			p, recursive = strings.TrimSuffix(p, "/..."), true
		}
		if !filepath.IsAbs(p) {
			p = filepath.Join(l.dir, p)
		}
		p = filepath.Clean(p)
		if !recursive {
			dirs = append(dirs, p)
			continue
		}
		err := filepath.WalkDir(p, func(d string, e os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !e.IsDir() {
				return nil
			}
			name := e.Name()
			if d != p && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(d) {
				dirs = append(dirs, d)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// importPath maps an absolute directory under the module root to its
// import path.
func (l *loader) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.dir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.dir)
	}
	if rel == "." {
		return l.module, nil
	}
	return l.module + "/" + filepath.ToSlash(rel), nil
}

func (l *loader) dirFor(importPath string) (string, error) {
	if importPath == l.module {
		return l.dir, nil
	}
	rel := strings.TrimPrefix(importPath, l.module+"/")
	if rel == importPath {
		return "", fmt.Errorf("lint: %q is not under module %q", importPath, l.module)
	}
	return filepath.Join(l.dir, filepath.FromSlash(rel)), nil
}

// parse reads one package directory (memoized).
func (l *loader) parse(importPath, dir string) (*rawPkg, error) {
	if r, ok := l.raw[importPath]; ok {
		return r, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", importPath, err)
	}
	r := &rawPkg{dir: dir}
	var names []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", importPath, err)
		}
		if r.name == "" {
			r.name = f.Name.Name
		}
		r.files = append(r.files, f)
	}
	l.raw[importPath] = r
	return r, nil
}

// parseClosure walks module-internal imports breadth-first from roots,
// parsing every reachable module package.
func (l *loader) parseClosure(roots []string) error {
	queue := append([]string{}, roots...)
	seen := map[string]bool{}
	for len(queue) > 0 {
		ip := queue[0]
		queue = queue[1:]
		if seen[ip] {
			continue
		}
		seen[ip] = true
		r, ok := l.raw[ip]
		if !ok {
			d, err := l.dirFor(ip)
			if err != nil {
				continue
			}
			r, err = l.parse(ip, d)
			if err != nil {
				// Missing module package: surfaced later as a type error.
				continue
			}
		}
		for _, f := range r.files {
			for _, spec := range f.Imports {
				p, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if l.isModulePath(p) {
					queue = append(queue, p)
				}
			}
		}
	}
	return nil
}

func (l *loader) isModulePath(p string) bool {
	return p == l.module || strings.HasPrefix(p, l.module+"/")
}

// importExternals locates compiler export data for every non-module import
// reachable from the parsed files and pre-imports it in dependency order
// (go list -deps emits dependencies before dependents, which the indexed
// export-data reader requires).
func (l *loader) importExternals() error {
	ext := map[string]bool{}
	for _, r := range l.raw {
		for _, f := range r.files {
			for _, spec := range f.Imports {
				p, err := strconv.Unquote(spec.Path.Value)
				if err != nil || p == "C" || p == "unsafe" || l.isModulePath(p) {
					continue
				}
				// Only stdlib-shaped paths (no dot in the first segment) can
				// resolve: go.mod requires nothing, so anything else is a
				// build error the type checker tolerates as an import error.
				if first, _, _ := strings.Cut(p, "/"); !strings.Contains(first, ".") {
					ext[p] = true
				}
			}
		}
	}
	if len(ext) == 0 {
		l.imp = importer.ForCompiler(l.fset, "gc", func(string) (io.ReadCloser, error) {
			return nil, fmt.Errorf("no export data")
		})
		return nil
	}
	var args []string
	for p := range ext {
		args = append(args, p)
	}
	sort.Strings(args)
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}, args...)...)
	cmd.Dir = l.dir
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			msg = string(ee.Stderr)
		}
		return fmt.Errorf("lint: go list -export failed: %s", msg)
	}
	exports := map[string]string{}
	var order []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		ip, file, ok := strings.Cut(line, "\t")
		if ok && file != "" {
			exports[ip] = file
			order = append(order, ip)
		}
	}
	l.imp = importer.ForCompiler(l.fset, "gc", func(p string) (io.ReadCloser, error) {
		file, ok := exports[p]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", p)
		}
		return os.Open(file)
	})
	for _, ip := range order {
		l.imp.Import(ip) // errors resurface per-package at type-check time
	}
	return nil
}

// Import implements types.Importer, routing module paths to source
// type-checking and everything else to export data.
func (l *loader) Import(p string) (*types.Package, error) {
	if p == "unsafe" {
		return types.Unsafe, nil
	}
	if l.isModulePath(p) {
		pkg := l.check(p)
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: could not load %q", p)
		}
		return pkg.Types, nil
	}
	return l.imp.Import(p)
}

// check type-checks one module package (memoized, cycle-guarded).
func (l *loader) check(importPath string) *Package {
	if p, ok := l.checked[importPath]; ok {
		return p
	}
	pkg := &Package{
		Path: importPath,
		Fset: l.fset,
	}
	if l.busy[importPath] {
		pkg.TypeErrors = append(pkg.TypeErrors, fmt.Errorf("import cycle through %q", importPath))
		return pkg
	}
	l.busy[importPath] = true
	defer delete(l.busy, importPath)

	r, ok := l.raw[importPath]
	if !ok {
		d, err := l.dirFor(importPath)
		if err == nil {
			r, err = l.parse(importPath, d)
		}
		if err != nil {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
			l.checked[importPath] = pkg
			return pkg
		}
	}
	pkg.Dir = r.dir
	pkg.Name = r.name
	pkg.Files = r.files
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	tpkg, _ := conf.Check(importPath, l.fset, r.files, pkg.Info) // errors already collected
	pkg.Types = tpkg
	l.checked[importPath] = pkg
	return pkg
}

// baseName is the last import-path segment, used for analyzer scoping.
func (p *Package) baseName() string { return path.Base(p.Path) }
