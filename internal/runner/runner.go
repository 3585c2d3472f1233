// Package runner is a deterministic fan-out/ordered-collect worker pool
// for simulation jobs.
//
// The evaluation suite (internal/experiments, cmd/gridbench) is a sweep
// of independent simulations: every point of Fig. 3/4, every Table 1
// candidate and every ablation row builds its own disposable world from
// a seed. The runner executes such jobs on up to GOMAXPROCS goroutines
// and hands the results back in submission order, so the assembled
// tables and figures are byte-identical to a sequential run no matter
// how the scheduler interleaves the workers.
//
// Determinism contract (see docs/PERFORMANCE.md):
//
//   - A Job must be self-contained: it builds every mutable structure it
//     touches (simulation.Engine, netsim.Network, cluster.Testbed, RNGs)
//     inside Run. Engines are single-goroutine by design; a shared one
//     trips the engine's "reentrant Run" guard and the race detector CI
//     runs the tests under.
//   - A Job may read shared immutable data (a measurement trace, a
//     config slice) but must not write anything outside its own return
//     value.
//   - Randomness comes from a seed the closure captured: the verbatim
//     experiment seed (how the published experiments pin their worlds)
//     or one DeriveSeed computed before submission (gridbench -trials).
//     Nothing about a job depends on the worker that runs it.
//
// Under those rules Run(jobs, workers) is a pure function of jobs, its
// error included: every job runs, and the errors are joined in submission
// order. The worker count changes wall-clock time only.
package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Job is one named unit of work producing a typed result.
type Job[T any] struct {
	// Name labels the job in errors and timing reports, e.g.
	// "fig4/streams=8/256MB". Empty names render as "job[i]".
	Name string
	// Run performs the work. It is called at most once, from exactly one
	// worker goroutine.
	Run func() (T, error)
}

// Result is one job's outcome, returned in submission order.
type Result[T any] struct {
	Name  string
	Value T
	// Err is the job's error, or a wrapped panic value if Run panicked.
	Err error
	// Wall is the job's wall-clock duration.
	Wall time.Duration
}

// Run executes every job on at most workers goroutines (<= 0 means
// GOMAXPROCS) and returns their results in submission order. The
// returned error is nil when every job succeeded, else the errors.Join
// of every failure in submission order, each prefixed with its job's
// name. The full result slice is returned even on error, so callers can
// inspect partial outcomes and per-job timing.
func Run[T any](jobs []Job[T], workers int) ([]Result[T], error) {
	results := make([]Result[T], len(jobs))
	for i := range results {
		results[i].Name = jobs[i].Name
	}
	if len(jobs) == 0 {
		return results, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var next atomic.Int64 // next job index to dispatch
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				r := &results[i]
				start := time.Now() //gridlint:wallclock-ok measures host wall-clock of a job, not simulated time
				var v T
				var err error
				func() {
					defer func() {
						if p := recover(); p != nil {
							err = fmt.Errorf("job panicked: %v", p)
						}
					}()
					v, err = jobs[i].Run()
				}()
				r.Wall = time.Since(start) //gridlint:wallclock-ok measures host wall-clock of a job, not simulated time
				r.Value, r.Err = v, err
			}
		}()
	}
	wg.Wait()

	var errs []error
	for i := range results {
		if results[i].Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", jobName(results[i].Name, i), results[i].Err))
		}
	}
	return results, errors.Join(errs...)
}

// Values extracts the job values from results, in submission order.
func Values[T any](results []Result[T]) []T {
	out := make([]T, len(results))
	for i := range results {
		out[i] = results[i].Value
	}
	return out
}

func jobName(name string, i int) string {
	if name == "" {
		return fmt.Sprintf("job[%d]", i)
	}
	return name
}
