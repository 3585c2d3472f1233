package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directives.
//
// A finding from analyzer <name> is suppressed when a comment of the form
//
//	//gridlint:<name>-ok [reason]
//
// appears as a trailing comment on the finding's own line, or as a
// standalone comment on the line immediately above it. The two placements
// are exclusive: a trailing directive covers only its own line, and a
// standalone directive covers only the next line, so one directive can
// never accidentally silence findings on two adjacent lines. The reason
// is free text and strongly encouraged: directives are meant to record
// *why* a site is exempt (e.g. "real socket deadline, not simulated
// time"), not to silence the tool. A bare //gridlint:ok suppresses every
// analyzer on its target line and exists for generated code only.
//
// Directives that no longer suppress anything are themselves findings
// (analyzer name "unuseddirective"): a stale directive is a claim about
// code that no longer exists, and leaving it around masks the next real
// finding introduced on that line.

const directivePrefix = "gridlint:"

// UnusedDirectiveName is the analyzer name under which stale suppression
// directives are reported.
const UnusedDirectiveName = "unuseddirective"

// Directive is one parsed //gridlint:<name>-ok comment.
type Directive struct {
	// Analyzer is the suppressed analyzer name, or "*" for the wildcard
	// form //gridlint:ok.
	Analyzer string
	// Pos is the directive comment's own position.
	Pos token.Position
	// Target is the line the directive suppresses: its own line for a
	// trailing directive, the next line for a standalone one.
	Target int
}

// collectDirectives parses every suppression directive in the package.
// A directive sharing its line with code is trailing (suppresses that
// line); a directive alone on its line suppresses the following line.
func collectDirectives(pkg *Package) []Directive {
	var out []Directive
	for _, f := range pkg.Files {
		code := codeLines(pkg.Fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d := Directive{Analyzer: name, Pos: pos, Target: pos.Line}
				if !code[pos.Line] {
					d.Target++
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// codeLines reports which lines of the file contain non-comment tokens,
// so a directive can be classified as trailing (shares a line with code)
// or standalone.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup, *ast.File:
			return true
		}
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()).Line] = true
		return true
	})
	return lines
}

// filterSuppressed drops diagnostics covered by a directive and returns
// the survivors plus the directives that suppressed nothing. Staleness
// is only judged for directives whose analyzer actually ran (names in
// ran, with the wildcard judged against any diagnostic): running a
// subset of the suite must not condemn directives for the analyzers
// that were skipped.
func filterSuppressed(pkg *Package, diags []Diagnostic, ran []string) ([]Diagnostic, []Directive) {
	directives := collectDirectives(pkg)
	used := make([]bool, len(directives))
	var kept []Diagnostic
	for _, d := range diags {
		suppressed := false
		for i, dir := range directives {
			if dir.Pos.Filename != d.Pos.Filename || dir.Target != d.Pos.Line {
				continue
			}
			if dir.Analyzer == d.Analyzer || dir.Analyzer == "*" {
				used[i] = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	ranSet := map[string]bool{}
	for _, name := range ran {
		ranSet[name] = true
	}
	var unused []Directive
	for i, dir := range directives {
		if used[i] {
			continue
		}
		if dir.Analyzer == "*" {
			// The wildcard is judged only when the full default suite ran;
			// any single analyzer could have been its reason to exist.
			if len(ranSet) >= len(All()) {
				unused = append(unused, dir)
			}
			continue
		}
		if ranSet[dir.Analyzer] {
			unused = append(unused, dir)
		}
	}
	return kept, unused
}

// UnusedDirectiveDiagnostics converts stale directives into findings.
func UnusedDirectiveDiagnostics(pkg *Package, unused []Directive) []Diagnostic {
	var out []Diagnostic
	for _, dir := range unused {
		name := dir.Analyzer
		if name == "*" {
			name = "ok"
		}
		out = append(out, Diagnostic{
			Analyzer: UnusedDirectiveName,
			Pos:      dir.Pos,
			Message: "directive //gridlint:" + displayDirective(dir.Analyzer) +
				" suppresses no finding; remove it (analyzer " + name + " is clean here)",
		})
	}
	return out
}

func displayDirective(analyzer string) string {
	if analyzer == "*" {
		return "ok"
	}
	return analyzer + "-ok"
}

// parseDirective extracts the analyzer name from a //gridlint:<name>-ok
// comment. It returns "*" for the wildcard form //gridlint:ok.
func parseDirective(text string) (string, bool) {
	body, ok := strings.CutPrefix(text, "//"+directivePrefix)
	if !ok {
		return "", false
	}
	// First token is the directive; anything after whitespace is reason.
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		body = body[:i]
	}
	if body == "ok" {
		return "*", true
	}
	name, ok := strings.CutSuffix(body, "-ok")
	if !ok || name == "" {
		return "", false
	}
	return name, true
}
