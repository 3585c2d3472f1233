package lint

import (
	"sort"
)

// Options configures a cross-package analysis run.
type Options struct {
	// ReportUnused appends an "unuseddirective" finding for every
	// suppression directive that suppressed nothing.
	ReportUnused bool
}

// AnalyzeAll analyzes the requested packages plus every module-local
// dependency the loader pulled in, in dependency order (imports first),
// sharing one fact store across the run — so facts exported by a package
// are visible when its importers are analyzed. Dependencies outside the
// requested set contribute facts but no diagnostics: asking for
// ./internal/simxfer must not also report on the packages it imports.
func AnalyzeAll(loader *Loader, requested []*Package, analyzers []*Analyzer, opts Options) []Diagnostic {
	store := NewFactStore()
	want := make(map[*Package]bool, len(requested))
	for _, p := range requested {
		want[p] = true
	}
	var all []Diagnostic
	for _, pkg := range dependencyOrder(loader) {
		diags, unused := RunFacts(pkg, analyzers, store)
		if !want[pkg] {
			continue
		}
		all = append(all, diags...)
		if opts.ReportUnused {
			all = append(all, UnusedDirectiveDiagnostics(pkg, unused)...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Pos.Filename != all[j].Pos.Filename {
			return all[i].Pos.Filename < all[j].Pos.Filename
		}
		if all[i].Pos.Line != all[j].Pos.Line {
			return all[i].Pos.Line < all[j].Pos.Line
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all
}

// dependencyOrder returns every package the loader has loaded, imports
// before importers, alphabetical within ties, so fact propagation and
// output order are deterministic.
func dependencyOrder(loader *Loader) []*Package {
	byPath := map[string]*Package{}
	var paths []string
	for _, p := range loader.Loaded() {
		byPath[p.Path] = p
		paths = append(paths, p.Path)
	}
	sort.Strings(paths)
	var order []*Package
	visited := map[string]bool{}
	var visit func(path string)
	visit = func(path string) {
		if visited[path] {
			return
		}
		visited[path] = true
		pkg := byPath[path]
		if pkg == nil {
			return
		}
		if pkg.Types != nil {
			var deps []string
			for _, imp := range pkg.Types.Imports() {
				if _, local := byPath[imp.Path()]; local {
					deps = append(deps, imp.Path())
				}
			}
			sort.Strings(deps)
			for _, d := range deps {
				visit(d)
			}
		}
		order = append(order, pkg)
	}
	for _, p := range paths {
		visit(p)
	}
	return order
}
