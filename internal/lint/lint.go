// Package lint is a small, dependency-free static-analysis framework for
// the data-grid codebase, modeled on golang.org/x/tools/go/analysis but
// built entirely on the standard library (go/ast, go/parser, go/types) so
// it works in hermetic build environments with no module downloads.
//
// The framework exists to enforce what the tests cannot see of two
// properties: determinism (every experiment is driven by the virtual clock
// in internal/simulation and seeded randomness) and I/O safety (no
// silently dropped I/O errors). See docs/STATIC_ANALYSIS.md for the
// analyzer catalogue and the suppression directive syntax.
//
// Unlike go/analysis there are no facts: Run analyzes one package on its
// own, from its syntax and types.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static-analysis pass. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer closely enough that the suite
// could be ported to the upstream framework mechanically.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in suppression
	// directives (//gridlint:<name>-ok).
	Name string

	// Doc is a one-paragraph description shown by `gridlint -list`.
	Doc string

	// Applies reports whether the analyzer should run on the package
	// with the given import path. A nil Applies means "every package".
	Applies func(pkgPath string) bool

	// Run inspects the package and reports findings via pass.Report.
	Run func(pass *Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	PkgPath  string

	diags *[]Diagnostic
}

// Diagnostic is a single finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Report records a finding at pos. Findings suppressed by a
// //gridlint:<name>-ok directive on the same or preceding line are
// dropped by the driver before they reach the caller.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil when type information
// is unavailable (e.g. a file that failed to type-check).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ObjectOf resolves the identifier to its types.Object, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	if o := p.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// Run executes the analyzers over one loaded package, on its own: no
// analyzer reads anything about another package but its types. It
// returns the surviving (non-suppressed) diagnostics in the order the
// analyzers reported them, plus the directives that suppressed nothing
// (see UnusedDirectiveDiagnostics).
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, []Directive) {
	var diags []Diagnostic
	ran := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(pkg.Path) {
			continue
		}
		ran = append(ran, a.Name)
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			PkgPath:  pkg.Path,
			diags:    &diags,
		}
		a.Run(pass)
	}
	return filterSuppressed(pkg, diags, ran)
}

// PathHasSuffix reports whether pkgPath equals suffix or ends in
// "/"+suffix. It is the standard scoping predicate for analyzers, and
// deliberately matches both real module paths
// (github.com/hpclab/datagrid/internal/netsim) and the short import
// paths linttest gives testdata packages (internal/netsim).
func PathHasSuffix(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}
