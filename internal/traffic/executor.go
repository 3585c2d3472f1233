package traffic

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/hpclab/datagrid/internal/placement"
	"github.com/hpclab/datagrid/internal/replica"
	"github.com/hpclab/datagrid/internal/simxfer"
)

// gridExecutor applies popularity-policy decisions to the simulated
// grid: replica additions become real epoch-boundary transfers on the
// shared network (registered in the catalog only when the copy lands),
// removals unregister immediately. It is driven from the driver at
// epoch boundaries; completion callbacks run during the following
// engine runs.
type gridExecutor struct {
	w   *world
	c   *collector
	rng *rand.Rand // replica landing-host draws, in decision order
	now time.Duration
}

var _ placement.Executor = (*gridExecutor)(nil)

func newGridExecutor(w *world, c *collector) *gridExecutor {
	return &gridExecutor{w: w, c: c, rng: rand.New(rand.NewSource(w.spec.Seed + 5))}
}

// HoldingRegions reports the regions holding the file, sorted.
func (e *gridExecutor) HoldingRegions(logical string) ([]string, error) {
	return e.w.Catalog.RegionsWith(logical)
}

// AddReplica copies the file from its best-ranked current holder to a
// host in the target region, registering the new location when the
// transfer completes. The copy is a real transfer: it competes with
// client traffic for the same links.
func (e *gridExecutor) AddReplica(logical, region string, done func(error)) error {
	hosts := e.w.Top.HostsByRegion[region]
	if len(hosts) == 0 {
		return fmt.Errorf("traffic: unknown replica region %q", region)
	}
	best, err := e.w.Server.SelectBest(logical, e.now)
	if err != nil {
		return err
	}
	lf, err := e.w.Catalog.Logical(logical)
	if err != nil {
		return err
	}
	dst := hosts[e.rng.Intn(len(hosts))]
	src := best.Location.Host
	if src == dst {
		return fmt.Errorf("traffic: replica of %s would copy %s onto itself", logical, src)
	}
	e.c.inflight++
	_, err = e.w.Testbed.Engine().Schedule(e.now, func(time.Duration) {
		err := e.w.xfer.Submit(simxfer.Request{
			Sources: []string{src},
			Dst:     dst,
			Bytes:   lf.SizeBytes,
			Options: e.w.spec.options(),
			Done: func(r simxfer.Result) {
				e.c.inflight--
				if r.Err == nil {
					r.Err = e.w.Catalog.Register(logical, replicaLocation(region, dst, logical))
				}
				done(r.Err)
			},
		})
		if err != nil {
			e.w.fail(fmt.Errorf("traffic: replica copy %s -> %s failed to start: %w", src, dst, err))
		}
	})
	if err != nil {
		e.c.inflight--
		return err
	}
	return nil
}

// replicaLocation is where dynamic copies land, distinguishable from the
// initial placement's /grid paths.
func replicaLocation(region, host, logical string) replica.Location {
	return replica.Location{Host: host, Path: "/replicas/" + region + "/" + logical}
}

// RemoveReplica retires the file's first (sorted) location in the
// region, refusing to orphan the last copy anywhere.
func (e *gridExecutor) RemoveReplica(logical, region string) error {
	regions, err := e.w.Catalog.RegionsWith(logical)
	if err != nil {
		return err
	}
	if len(regions) < 2 {
		return fmt.Errorf("traffic: refusing to orphan %s (only %v holds it)", logical, regions)
	}
	var buf [8]replica.Tagged
	locs, err := e.w.Catalog.Shard(region).AppendTagged(buf[:0], logical)
	if err != nil {
		return err
	}
	return e.w.Catalog.Unregister(logical, locs[0].Host, locs[0].Path)
}
