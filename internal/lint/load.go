package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("github.com/.../internal/netsim")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors holds type-checker errors. Analysis still runs with
	// partial type information; callers decide whether to surface them.
	TypeErrors []error
}

// Loader parses and type-checks packages of a single module plus their
// standard-library dependencies. Standard-library imports are resolved
// from GOROOT source (no compiled export data, no network), so the
// loader works in hermetic environments.
type Loader struct {
	Fset    *token.FileSet
	modPath string
	modRoot string
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader creates a loader rooted at the module directory containing
// go.mod. The module path is read from go.mod.
func NewLoader(modRoot string) (*Loader, error) {
	abs, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer shells out to cgo for cgo-using packages;
	// disable cgo so stdlib packages like net resolve to their pure-Go
	// variants and the loader stays hermetic.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		modPath: modPath,
		modRoot: abs,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// NewStdLoader creates a loader with no module context: every import is
// resolved from GOROOT source. It serves linttest, whose testdata
// packages import only the standard library.
func NewStdLoader() *Loader {
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		modPath: "\x00none", // unmatchable: no import is module-local
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Import implements types.Importer so the loader can resolve imports
// encountered while type-checking: module-local paths are loaded from
// the module tree, everything else from GOROOT source.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.modRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadDir parses and type-checks the package in dir, registering it
// under importPath. Test files (*_test.go) are skipped: the analyzers
// enforce invariants on production code, and tests legitimately use
// wall time and ad-hoc randomness.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	pkg := &Package{Path: importPath, Dir: dir, Fset: l.Fset, Files: files}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	cfg := &types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := cfg.Check(importPath, l.Fset, files, info)
	if err != nil && tpkg == nil {
		return nil, err
	}
	pkg.Types = tpkg
	pkg.Info = info
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// LoadPatterns expands go-style package patterns relative to the module
// root ("./...", "./internal/...", "./cmd/gridlint") into loaded
// packages, sorted by import path.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	// explicit marks dirs named directly (not via "..."): those must
	// resolve to a package, so a typo'd path fails instead of silently
	// analyzing nothing.
	dirs := map[string]bool{}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := l.walkPackages(l.modRoot, dirs); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			root := filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimSuffix(pat, "/...")))
			if err := l.walkPackages(root, dirs); err != nil {
				return nil, err
			}
		default:
			dirs[filepath.Join(l.modRoot, filepath.FromSlash(pat))] = true
		}
	}
	var sorted []string
	for dir := range dirs {
		sorted = append(sorted, dir)
	}
	sort.Strings(sorted)
	var pkgs []*Package
	for _, dir := range sorted {
		names, err := goFilesIn(dir)
		if err != nil || len(names) == 0 {
			if dirs[dir] {
				if err == nil {
					err = fmt.Errorf("no Go files")
				}
				return nil, fmt.Errorf("lint: package %s: %v", dir, err)
			}
			continue // walked intermediate dirs need not be packages
		}
		rel, err := filepath.Rel(l.modRoot, dir)
		if err != nil {
			return nil, err
		}
		importPath := l.modPath
		if rel != "." {
			importPath = l.modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, importPath)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", importPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func (l *Loader) walkPackages(root string, dirs map[string]bool) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if _, ok := dirs[path]; !ok {
			dirs[path] = false // walked, not explicitly named
		}
		return nil
	})
}

// goFilesIn lists the non-test Go files of dir that build on the host
// platform. Build constraints (//go:build lines and _GOOS/_GOARCH file
// suffixes) are honored via go/build, so platform-split files like
// x_linux.go / x_other.go don't collide in one load.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
