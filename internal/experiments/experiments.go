// Package experiments regenerates every table and figure of the paper's
// evaluation (§4), plus the ablations and extensions called out in
// DESIGN.md. Each experiment builds its own deterministic simulated
// testbed from a seed, so results are exactly reproducible.
package experiments

import (
	"errors"
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/info"
	"github.com/hpclab/datagrid/internal/replica"
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
	eng := simulation.NewEngine()
	tb, err := cluster.NewPaperTestbed(eng, seed)
	if err != nil {
		return nil, err
	}
	if err := cluster.StartPaperDynamics(tb, seed); err != nil {
		return nil, err
	}
	e := &Env{Engine: eng, Testbed: tb}
	e.Xfer, err = simxfer.New(tb)
	if err != nil {
		return nil, err
	}
	if monitor {
		e.Deploy, err = info.Deploy(tb, info.DeploymentConfig{
			Local:   "alpha1",
			Remotes: []string{"alpha4", "hit0", "lz02"},
			Seed:    seed + 1000,
		})
		if err != nil {
			return nil, err
		}
	}
	return e, nil
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
	if err := e.Engine.RunUntil(at); err != nil {
		return simxfer.Result{}, err
	}
	var res simxfer.Result
	got := false
	err := e.Xfer.Submit(simxfer.Request{
		Sources: []string{src},
		Dst:     dst,
		Bytes:   bytes,
		Options: o,
		Done:    func(r simxfer.Result) { res = r; got = true },
	})
	if err != nil {
		return simxfer.Result{}, err
	}
	if err := settle(e.Engine, at+100*time.Hour, "transfer", func() bool { return got }); err != nil {
		return simxfer.Result{}, err
	}
	return res, nil
}

// seconds renders a duration in seconds for tables.
func seconds(d time.Duration) float64 { return d.Seconds() }

// oneFileCatalog returns a catalog holding one logical file with one
// replica, at /data/<name>, on each listed host.
func oneFileCatalog(name string, sizeBytes int64, attrs map[string]string, hosts []string) (*replica.Catalog, error) {
	cat := replica.NewCatalog()
	if err := cat.CreateLogical(replica.LogicalFile{Name: name, SizeBytes: sizeBytes, Attributes: attrs}); err != nil {
		return nil, err
	}
	for _, h := range hosts {
		if err := cat.Register(name, replica.Location{Host: h, Path: "/data/" + name}); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// fileAAttrs tag the paper's file-a.
var fileAAttrs = map[string]string{"type": "biological-database"}

// buildCatalog registers the Table 1 scenario: logical file-a with
// replicas on the three candidate hosts.
func buildCatalog(sizeBytes int64) (*replica.Catalog, error) {
	return oneFileCatalog("file-a", sizeBytes, fileAAttrs, []string{"alpha4", "hit0", "lz02"})
}

// selectionFor wires a selection server over the env's deployment.
func (e *Env) selectionFor(cat *replica.Catalog, w core.Weights, sel core.Selector) (*core.SelectionServer, error) {
	if e.Deploy == nil {
		return nil, errors.New("experiments: env has no monitoring deployment")
	}
	return core.NewSelectionServer(cat, e.Deploy.Server, w, sel)
}

// sequentialFetches runs n fetches of logical through app, spaced gap
// apart, and returns each fetch's duration. A non-nil after sees each
// completed fetch before the next one is scheduled; its error ends the
// sequence.
func sequentialFetches(e *Env, app *core.Application, logical string, n int, gap time.Duration,
	after func(core.FetchResult) error) ([]time.Duration, error) {
	durations := make([]time.Duration, 0, n)
	var fetchErr error
	var launch func(i int)
	launch = func(i int) {
		if i >= n {
			return
		}
		err := app.Fetch(logical, func(r core.FetchResult, err error) {
			if err != nil {
				fetchErr = err
				return
			}
			durations = append(durations, r.Duration())
			if after != nil {
				if err := after(r); err != nil {
					fetchErr = err
					return
				}
			}
			if _, serr := e.Engine.After(gap, func(time.Duration) { launch(i + 1) }); serr != nil {
				fetchErr = serr
			}
		})
		if err != nil {
			fetchErr = err
		}
	}
	if _, err := e.Engine.After(0, func(time.Duration) { launch(0) }); err != nil {
		return nil, err
	}
	err := settle(e.Engine, stallLimit, "fetch sequence",
		func() bool { return len(durations) == n || fetchErr != nil })
	if err != nil {
		return nil, err
	}
	if fetchErr != nil {
		return nil, fetchErr
	}
	return durations, nil
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
