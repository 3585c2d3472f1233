package experiments

import (
	"fmt"

	"github.com/hpclab/datagrid/internal/metrics"
	"github.com/hpclab/datagrid/internal/simxfer"
	"github.com/hpclab/datagrid/internal/workload"
)

// CoallocationResult is one download configuration in the co-allocation
// extension experiment.
type CoallocationResult struct {
	Config  string
	Seconds float64
	// BytesBySource is the per-server contribution (single-source rows
	// carry one entry).
	BytesBySource map[string]int64
}

// ExtensionCoallocation evaluates co-allocated multi-source downloads —
// the research direction this paper's group pursued next. A 1 GB file is
// replicated at hit0 (fast path to THU) and lz02 (slow path); the user at
// alpha1 downloads it four ways: from each single replica, with a static
// equal split across both, and with dynamic chunk scheduling across both.
func ExtensionCoallocation(seed int64, workers int) ([]CoallocationResult, string, error) {
	const fileSize = 1024 * workload.MB
	type dlConfig struct {
		name    string
		sources []string
		scheme  simxfer.Scheme
	}
	cfgs := []dlConfig{
		{"single hit0", []string{"hit0"}, 0},
		{"single lz02", []string{"lz02"}, 0},
		{"static split hit0+lz02", []string{"hit0", "lz02"}, simxfer.SchemeStatic},
		{"dynamic chunks hit0+lz02", []string{"hit0", "lz02"}, simxfer.SchemeDynamic},
	}
	out, err := sweep(workers, "coallocation extension", cfgs, func(c dlConfig) (CoallocationResult, error) {
		env, err := NewEnv(seed, false)
		if err != nil {
			return CoallocationResult{}, err
		}
		res, err := env.submitAt(Warmup, simxfer.Request{
			Sources: c.sources,
			Dst:     "alpha1",
			Bytes:   fileSize,
			Options: simxfer.GridFTPOptions(0),
			Scheme:  c.scheme,
		})
		r := CoallocationResult{Config: c.name, Seconds: res.Duration().Seconds(), BytesBySource: res.BytesBySource}
		if r.BytesBySource == nil {
			// A single-source Result carries no per-source split.
			r.BytesBySource = map[string]int64{c.sources[0]: res.Bytes}
		}
		return r, err
	})
	if err != nil {
		return nil, "", err
	}
	tb := metrics.NewTable("Extension: co-allocated multi-source download (1024 MB to alpha1)",
		"configuration", "time (s)", "hit0 MB", "lz02 MB")
	for _, r := range out {
		tb.AddRow(r.Config, fmt.Sprintf("%.2f", r.Seconds),
			fmt.Sprintf("%d", r.BytesBySource["hit0"]/workload.MB),
			fmt.Sprintf("%d", r.BytesBySource["lz02"]/workload.MB))
	}
	return out, tb.String(), nil
}
