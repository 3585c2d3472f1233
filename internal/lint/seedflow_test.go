package lint_test

import (
	"testing"

	"github.com/hpclab/datagrid/internal/lint"
	"github.com/hpclab/datagrid/internal/lint/linttest"
)

func TestSeedflow(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.Seedflow, "internal/workload")
}

func TestSeedflowScope(t *testing.T) {
	cases := []struct {
		pkg  string
		want bool
	}{
		{"github.com/hpclab/datagrid/internal/workload", true},
		{"github.com/hpclab/datagrid/internal/experiments", true},
		{"github.com/hpclab/datagrid/internal/faults", true},
		{"github.com/hpclab/datagrid/internal/traffic", true},
		{"github.com/hpclab/datagrid/internal/gridftp", false},
		{"github.com/hpclab/datagrid/cmd/gridbench", false},
	}
	for _, c := range cases {
		if got := lint.Seedflow.Applies(c.pkg); got != c.want {
			t.Errorf("Seedflow.Applies(%q) = %v, want %v", c.pkg, got, c.want)
		}
	}
}
