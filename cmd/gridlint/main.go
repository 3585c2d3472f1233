// Command gridlint runs the repo's domain-specific static analyzers
// (internal/lint) over the module; `gridlint -list` names and describes
// them. It is wired into `make vet`, `make lint` and CI, and exits
// non-zero when any finding survives suppression directives.
//
// Usage:
//
//	gridlint [-list] [-run name[,name...]] [-unused=false] [-json] [packages]
//
// Package patterns are module-relative ("./...", "./internal/...",
// "./cmd/gridlint"); the default is "./...". The module root is found by
// walking up from the current directory to the nearest go.mod.
//
// Each package is analyzed on its own; its dependencies are type-checked
// but not analyzed. Stale suppression directives are findings too;
// disable that with -unused=false. -json emits the findings as a JSON
// array, sorted like the text output by file, line and analyzer.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/hpclab/datagrid/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the machine-readable shape of one diagnostic, consumed
// by the CI artifact upload.
type jsonFinding struct {
	File     string `json:"file"` // module-relative
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gridlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	unused := fs.Bool("unused", true, "report suppression directives that suppress nothing")
	asJSON := fs.Bool("json", false, "emit findings as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-20s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var selected []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				selected = append(selected, a)
				delete(want, a.Name)
			}
		}
		for name := range want {
			fmt.Fprintf(stderr, "gridlint: unknown analyzer %q\n", name)
			return 2
		}
		analyzers = selected
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	modRoot, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "gridlint: %v\n", err)
		return 2
	}
	loader, err := lint.NewLoader(modRoot)
	if err != nil {
		fmt.Fprintf(stderr, "gridlint: %v\n", err)
		return 2
	}
	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "gridlint: %v\n", err)
		return 2
	}
	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		for _, err := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "gridlint: %s: type error: %v\n", pkg.Path, err)
		}
		found, stale := lint.Run(pkg, analyzers)
		diags = append(diags, found...)
		if *unused {
			diags = append(diags, lint.UnusedDirectiveDiagnostics(pkg, stale)...)
		}
	}
	slices.SortStableFunc(diags, func(a, b lint.Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line), strings.Compare(a.Analyzer, b.Analyzer))
	})

	if *asJSON {
		findings := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, jsonFinding{
				File:     relTo(modRoot, d.Pos.Filename),
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "gridlint: %v\n", err)
			return 2
		}
		if len(diags) > 0 {
			return 1
		}
		return 0
	}

	for _, d := range diags {
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n",
			relTo(modRoot, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "gridlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func relTo(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return path
	}
	return rel
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
