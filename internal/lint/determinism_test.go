package lint_test

import (
	"testing"

	"github.com/hpclab/datagrid/internal/lint"
	"github.com/hpclab/datagrid/internal/lint/linttest"
)

func TestDeterminism(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.Determinism, "internal/netsim")
}

func TestDeterminismScope(t *testing.T) {
	cases := []struct {
		pkg  string
		want bool
	}{
		{"github.com/hpclab/datagrid/internal/simulation", true},
		{"github.com/hpclab/datagrid/internal/netsim", true},
		{"github.com/hpclab/datagrid/internal/workload", true},
		{"github.com/hpclab/datagrid/internal/experiments", true},
		// The worker pool orders parallel results deterministically; its
		// own sources of jitter are as off-limits as the simulation's.
		{"github.com/hpclab/datagrid/internal/runner", true},
		// The traffic plane feeds experiment tables (p50/p95/p99, skew)
		// and must stay byte-identical across -parallel.
		{"github.com/hpclab/datagrid/internal/traffic", true},
		// The real GridFTP stack may use wall-clock-ish randomness (jitter,
		// ephemeral ports) without perturbing experiment results.
		{"github.com/hpclab/datagrid/internal/gridftp", false},
		{"github.com/hpclab/datagrid/internal/netsimulator", false},
	}
	for _, c := range cases {
		if got := lint.Determinism.Applies(c.pkg); got != c.want {
			t.Errorf("Determinism.Applies(%q) = %v, want %v", c.pkg, got, c.want)
		}
	}
}
