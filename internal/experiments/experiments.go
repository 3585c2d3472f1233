// Package experiments regenerates every table and figure of the paper's
// evaluation (§4), plus the ablations and extensions called out in
// DESIGN.md. Each experiment builds its own deterministic simulated
// testbed from a seed, so results are exactly reproducible.
package experiments

import (
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/info"
	"github.com/hpclab/datagrid/internal/replica"
	"github.com/hpclab/datagrid/internal/runner"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/simxfer"
)

// Warmup is how long monitors run before any measurement, letting NWS
// accumulate probe history and the load processes decorrelate from their
// initial state.
const Warmup = 3 * time.Minute

// Env is one disposable simulated world: the paper testbed with its
// dynamics, and optionally the full monitoring deployment.
type Env struct {
	Engine  *simulation.Engine
	Testbed *cluster.Testbed
	Xfer    *simxfer.Transferrer
	Deploy  *info.Deployment // nil unless monitoring was requested
}

// NewEnv builds the paper testbed with synthetic dynamics. When monitor
// is true, the full NWS/MDS/sysstat deployment is installed with alpha1 as
// the local host and the Table 1 candidates as remotes.
func NewEnv(seed int64, monitor bool) (*Env, error) {
	tb, err := cluster.NewPaperTestbed(simulation.NewEngine())
	if err != nil {
		return nil, err
	}
	if err := cluster.StartPaperDynamics(tb, seed); err != nil {
		return nil, err
	}
	e, err := envOn(tb)
	if err != nil || !monitor {
		return e, err
	}
	return e, e.monitor(info.DeploymentConfig{
		Local:   "alpha1",
		Remotes: fileAHosts,
	})
}

// envOn wraps a built testbed, not yet monitored, as an Env.
func envOn(tb *cluster.Testbed) (*Env, error) {
	xf, err := simxfer.New(tb)
	if err != nil {
		return nil, err
	}
	return &Env{Engine: tb.Engine(), Testbed: tb, Xfer: xf}, nil
}

// monitor installs the NWS/MDS/sysstat deployment cfg describes.
func (e *Env) monitor(cfg info.DeploymentConfig) error {
	dep, err := info.Deploy(e.Testbed, cfg)
	e.Deploy = dep
	return err
}

// stallLimit is the virtual time past which a run that has not settled is
// reported as stalled.
const stallLimit = 1000 * time.Hour

// settle fires events one at a time until done reports true, so the clock
// stops at the instant of the event that completed the run and nothing
// after it is simulated: a caller reads what its completion callbacks
// captured, or state no later event could change, then drops the world.
// A run is reported as stalled instead of spinning or hanging when the
// queue drains with done still false, or when an event fires past limit.
func settle(eng *simulation.Engine, limit time.Duration, what string, done func() bool) error {
	for !done() {
		if !eng.Step() {
			return fmt.Errorf("experiments: %s stalled: no events left at %v", what, eng.Now())
		}
		if eng.Now() > limit {
			return fmt.Errorf("experiments: %s stalled: not done by %v", what, limit)
		}
	}
	return nil
}

// MeasureAt runs the world to virtual time at, then performs one transfer
// and returns its result. The world stops at the transfer's completion.
func (e *Env) MeasureAt(at time.Duration, src, dst string, bytes int64, o simxfer.Options) (simxfer.Result, error) {
	return e.submitAt(at, simxfer.Request{Sources: []string{src}, Dst: dst, Bytes: bytes, Options: o})
}

// submitAt runs the world to virtual time at, then submits req (its Done
// is set here) and returns the result. The world stops at the request's
// completion.
func (e *Env) submitAt(at time.Duration, req simxfer.Request) (simxfer.Result, error) {
	if err := e.Engine.RunUntil(at); err != nil {
		return simxfer.Result{}, err
	}
	var res simxfer.Result
	got := false
	req.Done = func(r simxfer.Result) { res = r; got = true }
	if err := e.Xfer.Submit(req); err != nil {
		return simxfer.Result{}, err
	}
	if err := settle(e.Engine, at+100*time.Hour, "transfer", func() bool { return got }); err != nil {
		return simxfer.Result{}, err
	}
	return res, nil
}

// measureFresh builds a fresh world from seed and returns how many
// seconds one transfer, started at virtual time at, takes in it.
func measureFresh(seed int64, monitor bool, at time.Duration, src, dst string, bytes int64, o simxfer.Options) (float64, error) {
	env, err := NewEnv(seed, monitor)
	if err != nil {
		return 0, err
	}
	res, err := env.MeasureAt(at, src, dst, bytes, o)
	return res.Duration().Seconds(), err
}

// siteOf maps a host to its site; hosts outside the testbed have none.
func (e *Env) siteOf(host string) string {
	h, err := e.Testbed.Host(host)
	if err != nil {
		return ""
	}
	return h.Site()
}

// selectFile registers one logical file, at /data/<name> on each listed
// host, in a catalog that knows every host's site, and wires a selection
// server with the paper's 80/10/10 weights over the env's monitoring
// deployment; a nil sel is the cost model itself.
func (e *Env) selectFile(name string, size int64, attrs map[string]string, hosts []string, sel core.Selector) (*core.SelectionServer, *replica.ShardedCatalog, error) {
	cat := replica.NewSharded(e.siteOf)
	if err := cat.CreateLogical(replica.LogicalFile{Name: name, SizeBytes: size, Attributes: attrs}); err != nil {
		return nil, nil, err
	}
	for _, h := range hosts {
		if err := cat.Register(name, replica.Location{Host: h, Path: "/data/" + name}); err != nil {
			return nil, nil, err
		}
	}
	srv, err := core.NewSelectionServer(cat.Catalog, e.Deploy.Server.Publisher(), core.PaperWeights, sel)
	return srv, cat, err
}

// fileAAttrs tag the paper's file-a.
var fileAAttrs = map[string]string{"type": "biological-database"}

// fileAHosts are the paper's replica holders of file-a, the Table 1
// candidates beside alpha1 itself.
var fileAHosts = []string{"alpha4", "hit0", "lz02"}

// sweep runs run once per point, one pool job per point on at most
// workers goroutines (≤ 0 means GOMAXPROCS), and returns the results in
// point order, so whatever is assembled from them is byte-identical at
// any worker count. Every point runs even when one fails, and the error
// joins every failure in point order, so it too is the same at any
// worker count. Each failure names the experiment and the failing point
// with %v, so points are plain data, and a point that holds a func names
// itself with a String method.
//
// Every point must build its own world (Env/engine/testbed) inside run —
// engines are single-goroutine, and one shared across the pool fails the
// engine's "reentrant Run" guard and `go test -race`.
func sweep[P, T any](workers int, what string, points []P, run func(P) (T, error)) ([]T, error) {
	jobs := make([]runner.Job[T], len(points))
	for i, p := range points {
		jobs[i] = runner.Job[T]{Name: what, Run: func() (T, error) {
			v, err := run(p)
			if err != nil {
				err = fmt.Errorf("point %v: %w", p, err)
			}
			return v, err
		}}
	}
	res, err := runner.Run(jobs, workers)
	if err != nil {
		return nil, err
	}
	return runner.Values(res), nil
}

// sequence runs n steps on the virtual clock: step 0 starts now, and step
// i+1 starts gap after step i calls done. An error from a step, or one
// passed to done, ends the run and is returned; so is a stall.
func (e *Env) sequence(what string, n int, gap time.Duration, step func(i int, done func(error)) error) error {
	finished := 0
	var runErr error
	var launch func(i int)
	launch = func(i int) {
		if i == n {
			return
		}
		err := step(i, func(err error) {
			if err != nil {
				runErr = err
				return
			}
			finished++
			if _, err := e.Engine.After(gap, func(time.Duration) { launch(i + 1) }); err != nil {
				runErr = err
			}
		})
		if err != nil {
			runErr = err
		}
	}
	if _, err := e.Engine.After(0, func(time.Duration) { launch(0) }); err != nil {
		return err
	}
	if err := settle(e.Engine, stallLimit, what, func() bool { return finished == n || runErr != nil }); err != nil {
		return fmt.Errorf("%w (%d/%d done)", err, finished, n)
	}
	return runErr
}

// sequentialFetches warms the world up, then has an application at local
// fetch logical n times through srv and transfer, gap apart, and returns
// each fetch's duration. A non-nil after sees each completed fetch before
// the next one is scheduled; its error ends the sequence.
func (e *Env) sequentialFetches(srv *core.SelectionServer, local string, transfer replica.Transfer,
	logical string, n int, gap time.Duration, after func(core.FetchResult) error) ([]time.Duration, error) {
	app, err := core.NewApplication(local, srv, transfer, e.Engine)
	if err != nil {
		return nil, err
	}
	if err := e.Engine.RunUntil(Warmup); err != nil {
		return nil, err
	}
	durations := make([]time.Duration, 0, n)
	err = e.sequence("fetch sequence", n, gap, func(_ int, done func(error)) error {
		return app.Fetch(logical, func(r core.FetchResult, err error) {
			if err == nil {
				durations = append(durations, r.Duration())
				if after != nil {
					err = after(r)
				}
			}
			done(err)
		})
	})
	return durations, err
}

// meanSeconds averages durations in seconds.
func meanSeconds(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range ds {
		sum += d.Seconds()
	}
	return sum / float64(len(ds))
}
