// Package linttest runs lint analyzers against testdata packages and
// checks their diagnostics against // want annotations, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library
// only.
//
// A testdata package lives at <testdata>/src/<importpath>/ and marks
// expected findings with trailing comments:
//
//	time.Sleep(d) // want `time\.Sleep`
//
// Each backquoted or double-quoted string after "want" is a regular
// expression that must match the message of a diagnostic reported on
// that line; diagnostics with no matching want, and wants with no
// matching diagnostic, fail the test.
package linttest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/hpclab/datagrid/internal/lint"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	abs, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return abs
}

// Run loads <testdata>/src/<pkgPath>, applies the analyzer, and reports
// any mismatch between diagnostics and // want annotations as test
// failures. A fixture imports the standard library only.
func Run(t *testing.T, testdata string, a *lint.Analyzer, pkgPath string) {
	t.Helper()
	loader := lint.NewStdLoader()
	dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgPath))
	pkg, err := loader.LoadDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("testdata must type-check: %v", terr)
	}
	if a.Applies != nil && !a.Applies(pkgPath) {
		t.Fatalf("analyzer %s does not apply to package %s; fix the testdata layout", a.Name, pkgPath)
	}
	diags, _ := lint.Run(pkg, []*lint.Analyzer{a})
	wants := collectWants(t, pkg)

	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] || d.Pos.Filename != w.file || d.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

func collectWants(t *testing.T, pkg *lint.Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				res, err := parseWantPatterns(text)
				if err != nil {
					t.Fatalf("%s:%d: %v", pos.Filename, pos.Line, err)
				}
				for _, re := range res {
					wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// parseWantPatterns extracts the quoted regexps from the text after
// "want": sequences of `...` or "..." separated by spaces.
func parseWantPatterns(text string) ([]*regexp.Regexp, error) {
	var res []*regexp.Regexp
	rest := strings.TrimSpace(text)
	for rest != "" {
		var raw string
		switch rest[0] {
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated ` in want pattern %q", rest)
			}
			raw = rest[1 : 1+end]
			rest = rest[2+end:]
		case '"':
			var err error
			// strconv.Unquote needs the full quoted token.
			end := quotedEnd(rest)
			if end < 0 {
				return nil, fmt.Errorf("unterminated \" in want pattern %q", rest)
			}
			raw, err = strconv.Unquote(rest[:end+1])
			if err != nil {
				return nil, fmt.Errorf("bad want pattern %q: %v", rest[:end+1], err)
			}
			rest = rest[end+1:]
		default:
			return nil, fmt.Errorf("want patterns must be quoted, got %q", rest)
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			return nil, fmt.Errorf("bad want regexp %q: %v", raw, err)
		}
		res = append(res, re)
		rest = strings.TrimSpace(rest)
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("want comment has no patterns")
	}
	return res, nil
}

// quotedEnd returns the index of the closing unescaped double quote.
func quotedEnd(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
	return -1
}
