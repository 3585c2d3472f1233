package datagrid

import (
	"bufio"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citation matches a `docs/<FILE>.md, "<Heading>"` reference once its
// text is joined into one line; the comma is optional.
var citation = regexp.MustCompile(`docs/([A-Z_]+\.md),? "([^"]+)"`)

// squash joins wrapped text: every whitespace run becomes one space, and
// backticks go, so a heading and a citation compare as plain words.
func squash(s string) string {
	return strings.Join(strings.Fields(strings.ReplaceAll(s, "`", "")), " ")
}

// docHeadings returns the squashed headings of every docs/*.md file,
// skipping fenced code blocks.
func docHeadings(t *testing.T) map[string]map[string]bool {
	t.Helper()
	paths, err := filepath.Glob("docs/*.md")
	if err != nil || len(paths) == 0 {
		t.Fatalf("docs/*.md: %v (%d files)", err, len(paths))
	}
	out := make(map[string]map[string]bool, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		hs := map[string]bool{}
		fenced := false
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
			}
			if !fenced && strings.HasPrefix(line, "#") {
				h := squash(strings.TrimLeft(line, "#"))
				hs[h] = true
				// "Routes on the core" names "Routes on the core (Route)".
				if i := strings.LastIndex(h, " ("); i > 0 && strings.HasSuffix(h, ")") {
					hs[h[:i]] = true
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		out[filepath.Base(p)] = hs
	}
	return out
}

// TestDocCitationsNameHeadings holds every `docs/<FILE>.md, "<Heading>"`
// citation in a Go comment (joined across wrapped lines) or a Markdown
// doc to a heading that exists, so the arguments the code cites stay
// reachable when a doc is rewritten. CHANGES.md is history: it may name
// headings that are gone.
func TestDocCitationsNameHeadings(t *testing.T) {
	headings := docHeadings(t)
	checked := 0
	check := func(where, text string) {
		for _, m := range citation.FindAllStringSubmatch(squash(text), -1) {
			checked++
			hs, ok := headings[m[1]]
			if !ok {
				t.Errorf("%s cites docs/%s, which does not exist", where, m[1])
			} else if !hs[m[2]] {
				t.Errorf("%s cites docs/%s, %q: no such heading", where, m[1], m[2])
			}
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(p, ".go"):
			f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			for _, cg := range f.Comments {
				check(fset.Position(cg.Pos()).String(), cg.Text())
			}
		case strings.HasSuffix(p, ".md") && p != "CHANGES.md":
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			check(p, string(b))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("found no citation: the pattern no longer matches the tree")
	}
}
