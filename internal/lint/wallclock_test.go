package lint_test

import (
	"testing"

	"github.com/hpclab/datagrid/internal/lint"
	"github.com/hpclab/datagrid/internal/lint/linttest"
)

func TestWallclock(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.Wallclock, "wallclock")
}

func TestWallclockScope(t *testing.T) {
	cases := []struct {
		pkg  string
		want bool
	}{
		{"github.com/hpclab/datagrid/internal/netsim", true},
		{"github.com/hpclab/datagrid/internal/gridftp", true},
		{"github.com/hpclab/datagrid/cmd/gridbench", false},
		{"github.com/hpclab/datagrid/examples/quickstart", false},
	}
	for _, c := range cases {
		if got := lint.Wallclock.Applies(c.pkg); got != c.want {
			t.Errorf("Wallclock.Applies(%q) = %v, want %v", c.pkg, got, c.want)
		}
	}
}
