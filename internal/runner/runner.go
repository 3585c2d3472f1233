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
// Under those rules Run(jobs, opts) is a pure function of jobs — the
// Workers knob changes wall-clock time only.
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

// Policy selects how Run reacts to a failing job.
type Policy int

const (
	// FailFast stops dispatching new jobs after the first failure;
	// already-running jobs finish, not-yet-started jobs are marked
	// Skipped. Run returns the error of the lowest-indexed failed job.
	// Note the *identity* of that error can depend on timing (an
	// earlier-indexed job may be skipped before its failure is ever
	// observed); use CollectAll when deterministic error sets matter.
	FailFast Policy = iota
	// CollectAll runs every job regardless of failures and returns the
	// joined errors in submission order.
	CollectAll
)

// Options configures one Run call.
type Options struct {
	// Workers caps concurrent jobs. Values <= 0 mean GOMAXPROCS(0); the
	// cap is further clamped to len(jobs).
	Workers int
	// Policy is the error policy; the zero value is FailFast.
	Policy Policy
}

// Result is one job's outcome, returned in submission order.
type Result[T any] struct {
	Name  string
	Value T
	// Err is the job's error, or a wrapped panic value if Run panicked.
	Err error
	// Skipped marks a job that was never started because an earlier
	// failure tripped the FailFast policy.
	Skipped bool
	// Wall is the job's wall-clock duration (zero when skipped).
	Wall time.Duration
}

// Run executes jobs on a bounded worker pool and returns their results
// in submission order. The returned error is nil when every job
// succeeded; under FailFast it is the lowest-indexed observed failure,
// under CollectAll the errors.Join of every failure in submission order.
// The full result slice is returned even on error, so callers can
// inspect partial outcomes and per-job timing.
func Run[T any](jobs []Job[T], opts Options) ([]Result[T], error) {
	results := make([]Result[T], len(jobs))
	for i := range results {
		results[i].Name = jobs[i].Name
	}
	if len(jobs) == 0 {
		return results, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var next atomic.Int64 // next job index to dispatch
	var failed atomic.Bool
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
				if opts.Policy == FailFast && failed.Load() {
					r.Skipped = true
					continue
				}
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
				if err != nil && opts.Policy == FailFast {
					failed.Store(true)
				}
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
	if len(errs) == 0 {
		return results, nil
	}
	if opts.Policy == FailFast {
		return results, errs[0]
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
