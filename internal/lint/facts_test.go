package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/hpclab/datagrid/internal/lint"
	"github.com/hpclab/datagrid/internal/lint/linttest"
)

// TestFactsRoundTrip proves the whole fact pipeline: analyzing the
// deriver package exports a seedDeriver fact, and a store carrying it
// changes the diagnostics of a dependent package.
func TestFactsRoundTrip(t *testing.T) {
	src := filepath.Join(linttest.TestData(), "src")
	loader := lint.NewTestLoader(src)

	runnerPkg, err := loader.LoadDir(filepath.Join(src, "internal/runner"), "internal/runner")
	if err != nil {
		t.Fatalf("loading runner fixture: %v", err)
	}
	store := lint.NewFactStore()
	if diags, _ := lint.RunFacts(runnerPkg, []*lint.Analyzer{lint.Seedflow}, store); len(diags) != 0 {
		t.Fatalf("runner fixture should be clean, got %v", diags)
	}
	if _, ok := store.Lookup("seedflow", "internal/runner", "DeriveSeed", "seedDeriver"); !ok {
		t.Fatalf("expected seedDeriver fact for runner.DeriveSeed")
	}
	if _, ok := store.Lookup("seedflow", "internal/runner", "Version", "seedDeriver"); ok {
		t.Fatalf("runner.Version ignores its (absent) inputs and must not be a seed deriver")
	}

	wlPkg, err := loader.LoadDir(filepath.Join(src, "internal/workload"), "internal/workload")
	if err != nil {
		t.Fatalf("loading workload fixture: %v", err)
	}
	withFacts, _ := lint.RunFacts(wlPkg, []*lint.Analyzer{lint.Seedflow}, store)
	without, _ := lint.RunFacts(wlPkg, []*lint.Analyzer{lint.Seedflow}, lint.NewFactStore())
	if len(without) != len(withFacts)+1 {
		t.Fatalf("the DeriveSeed fact should suppress exactly one finding: with facts %d, without %d",
			len(withFacts), len(without))
	}
	found := false
	for _, d := range without {
		if !contains(withFacts, d) {
			found = true
			if want := "seed does not trace to a config seed"; !strings.Contains(d.Message, want) {
				t.Errorf("the fact-dependent finding should be about seed provenance, got %q", d.Message)
			}
		}
	}
	if !found {
		t.Fatalf("could not identify the fact-dependent finding")
	}
}

func contains(diags []lint.Diagnostic, d lint.Diagnostic) bool {
	for _, x := range diags {
		if x.Pos == d.Pos && x.Message == d.Message {
			return true
		}
	}
	return false
}
