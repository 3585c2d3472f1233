package lint_test

import (
	"testing"

	"github.com/hpclab/datagrid/internal/lint"
	"github.com/hpclab/datagrid/internal/lint/linttest"
)

func TestErrcheckLite(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.ErrcheckLite, "internal/gridftp")
}

func TestErrcheckScope(t *testing.T) {
	cases := []struct {
		pkg  string
		want bool
	}{
		{"github.com/hpclab/datagrid/internal/gridftp", true},
		{"github.com/hpclab/datagrid/internal/gsi", true},
		{"github.com/hpclab/datagrid/internal/netsim", false},
	}
	for _, c := range cases {
		if got := lint.ErrcheckLite.Applies(c.pkg); got != c.want {
			t.Errorf("ErrcheckLite.Applies(%q) = %v, want %v", c.pkg, got, c.want)
		}
	}
}
