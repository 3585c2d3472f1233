package experiments

import (
	"github.com/hpclab/datagrid/internal/runner"
)

// Option configures how an experiment executes. Options only affect
// resource usage (worker count), never results: every experiment's
// output is byte-identical for any option combination, a property
// cmd/gridbench pins with a committed test and a CI diff gate.
type Option func(*config)

type config struct {
	workers int // ≤0 means runner's default (GOMAXPROCS)
}

// WithWorkers caps the number of simulation jobs an experiment runs
// concurrently. n ≤ 0 (and the default when the option is absent) means
// GOMAXPROCS. WithWorkers(1) reproduces the historical sequential
// execution exactly — same worlds, same order, same output bytes.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// runPoints executes one experiment's per-point jobs on a bounded pool
// and returns the values in submission order. Jobs fail fast: the
// first observed failure cancels not-yet-started points, mirroring the
// historical sequential early return.
//
// Every job must build its own world (Env/engine/testbed) inside the
// closure — engines are single-goroutine, and one shared across the pool
// fails the engine's "reentrant Run" guard and `go test -race`.
func runPoints[T any](cfg config, jobs []runner.Job[T]) ([]T, error) {
	res, err := runner.Run(jobs, runner.Options{Workers: cfg.workers})
	if err != nil {
		return nil, err
	}
	return runner.Values(res), nil
}
