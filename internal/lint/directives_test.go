package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const directiveSrc = `package dirtest

import "time"

func trailing() {
	time.Sleep(1) //gridlint:wallclock-ok covers this line only
	time.Sleep(2)
}

func standalone() {
	//gridlint:wallclock-ok covers the next line only
	time.Sleep(3)
	time.Sleep(4)
}

func wrongAnalyzer() {
	time.Sleep(5) //gridlint:determinism-ok wrong analyzer, suppresses nothing
}

func stale() {
	_ = time.Second //gridlint:wallclock-ok stale: nothing to suppress here
}
`

func loadDirectiveFixture(t *testing.T) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "dirtest.go"), []byte(directiveSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := NewStdLoader().LoadDir(dir, "dirtest")
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("fixture must type-check: %v", terr)
	}
	return pkg
}

// TestDirectiveCoversOneLine is the regression test for the directive
// matcher's double line match: a directive used to suppress findings on
// both its own line and the next, so one trailing directive could
// silence two adjacent findings. Trailing and standalone placements are
// now exclusive.
func TestDirectiveCoversOneLine(t *testing.T) {
	pkg := loadDirectiveFixture(t)
	diags, unused := Run(pkg, []*Analyzer{Wallclock})

	var lines []int
	for _, d := range diags {
		lines = append(lines, d.Pos.Line)
	}
	// Line 6 (trailing directive) and line 12 (under a standalone
	// directive) are suppressed; lines 7, 13 and 17 survive.
	want := []int{7, 13, 17}
	if len(lines) != len(want) {
		t.Fatalf("diagnostics on lines %v, want %v (full: %v)", lines, want, diags)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("diagnostics on lines %v, want %v", lines, want)
		}
	}

	// Only the wallclock directive with no finding is stale; the
	// determinism directive is not judged because determinism never ran.
	if len(unused) != 1 {
		t.Fatalf("unused directives: %+v, want exactly one", unused)
	}
	if unused[0].Analyzer != "wallclock" || unused[0].Pos.Line != 21 {
		t.Fatalf("unused directive = %+v, want the stale wallclock directive on line 21", unused[0])
	}

	// The stale directive is reported as a finding at its own position.
	ud := UnusedDirectiveDiagnostics(pkg, unused)
	if len(ud) != 1 || ud[0].Analyzer != UnusedDirectiveName || ud[0].Pos.Line != 21 ||
		!strings.Contains(ud[0].Message, "//gridlint:wallclock-ok suppresses no finding") {
		t.Fatalf("stale directive diagnostics = %+v, want one unuseddirective finding on line 21", ud)
	}
}
