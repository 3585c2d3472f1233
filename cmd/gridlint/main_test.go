package main

import (
	"slices"
	"strings"
	"testing"
)

// TestListAnalyzers pins the suite. The Makefile, CI and
// docs/STATIC_ANALYSIS.md name the same analyzers; a change to the list
// changes them too.
func TestListAnalyzers(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("gridlint -list exited %d: %s", code, errOut.String())
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		name, _, _ := strings.Cut(line, " ")
		got = append(got, name)
	}
	want := []string{"wallclock", "determinism", "errcheck"}
	if !slices.Equal(got, want) {
		t.Errorf("-list names %v, want exactly %v", got, want)
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-run", "nosuch", "./internal/simulation"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown analyzer: exit %d, want 2 (stderr: %s)", code, errOut.String())
	}
}

// TestCleanPackages runs the full suite, stale-directive check included,
// over the whole module, so Tier-1 alone sees a finding anywhere.
func TestCleanPackages(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"./..."}, &out, &errOut); code != 0 {
		t.Fatalf("gridlint exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
}
