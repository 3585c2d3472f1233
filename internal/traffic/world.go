package traffic

import (
	"fmt"
	"strconv"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/faults"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/simxfer"
	"github.com/hpclab/datagrid/internal/topo"
)

// world is one built traffic grid: the generated topo.World (testbed,
// sharded catalog, hierarchical selection stack) and the transferrer
// every flow runs through, all on one engine.
type world struct {
	*topo.World
	spec Spec
	xfer *simxfer.Transferrer
	// names are the catalog's file names by index, as topo.PlaceFiles
	// registers them, so that an arrival formats none.
	names []string
	// free pools the records of scheduled Submits.
	free []*dispatchRec

	// err is the first failure raised inside a scheduled callback, where
	// there is no caller to return it to; see fail.
	err error
}

// buildWorld realizes the spec on engine.
func buildWorld(spec Spec, engine *simulation.Engine) (*world, error) {
	ts := spec.Topology
	ts.Seed = spec.Seed
	tw, err := topo.NewWorld(ts, engine, spec.Files, spec.Replicas, spec.FileBytes)
	if err != nil {
		return nil, err
	}
	w := &world{World: tw, spec: spec, names: make([]string, spec.Files)}
	for i := range w.names {
		w.names[i] = "lfn:d" + strconv.Itoa(i)
	}
	if w.xfer, err = simxfer.New(w.Testbed); err != nil {
		return nil, err
	}
	if err := w.installFaults(); err != nil {
		return nil, err
	}
	return w, nil
}

// dispatchRec is one scheduled Submit: the request and the storage its
// Sources use. The record is its event's receiver, as netsim's slow-start
// batches are, and Submit copies Sources, so the record is free again once
// it has fired.
type dispatchRec struct {
	w       *world
	req     simxfer.Request
	sources [maxSources]string
}

// newDispatch takes a record from the pool, or makes one.
func (w *world) newDispatch() *dispatchRec {
	if k := len(w.free); k > 0 {
		d := w.free[k-1]
		w.free = w.free[:k-1]
		return d
	}
	return &dispatchRec{w: w}
}

// Fire submits the request and returns the record to the pool.
func (d *dispatchRec) Fire(time.Duration) {
	w := d.w
	if err := w.xfer.Submit(d.req); err != nil {
		w.fail(fmt.Errorf("traffic: submit %s -> %s: %w", d.req.Sources[0], d.req.Dst, err))
	}
	w.free = append(w.free, d)
}

// fail records the first error a scheduled callback hit and stops the
// engine; run returns it as soon as the engine hands control back.
func (w *world) fail(err error) {
	if w.err == nil {
		w.err = err
	}
	w.Testbed.Engine().Stop()
}

// advance runs the engine to deadline and surfaces a callback failure.
func (w *world) advance(deadline time.Duration) error {
	if err := w.Testbed.Engine().RunUntil(deadline); err != nil {
		return err
	}
	return w.err
}

// installFaults draws the spec's fault schedule and installs it on the
// testbed. Monitor outages are excluded: the traffic plane's thin
// publishers have no gate to pause.
func (w *world) installFaults() error {
	if w.spec.FaultIntensity <= 0 {
		return nil
	}
	cut, _, err := w.Top.BoundaryCut()
	if err != nil {
		return err
	}
	links := make([][2]string, 0, len(cut))
	for _, bl := range cut {
		links = append(links, [2]string{cluster.SwitchNode(bl.From), cluster.SwitchNode(bl.To)})
	}
	// Victim hosts: the first two hosts of every region — a fixed,
	// topology-derived set so intensity sweeps stay comparable.
	var hosts []string
	for _, region := range w.Top.Regions {
		rh := w.Top.HostsByRegion[region]
		for i := 0; i < 2 && i < len(rh); i++ {
			hosts = append(hosts, rh[i])
		}
	}
	n := w.spec.FaultIntensity
	plan, err := faults.GeneratePlan(faults.Config{
		Seed:         w.spec.Seed + int64(n)*7919,
		Horizon:      w.spec.Horizon,
		MeanDuration: 2 * time.Minute,
		LinkFlaps:    3 * n,
		HostCrashes:  2 * n,
		DiskDegrades: 2 * n,
		Hosts:        hosts,
		Links:        links,
	})
	if err != nil {
		return err
	}
	inj, err := faults.NewInjector(w.Testbed, nil)
	if err != nil {
		return err
	}
	return inj.Install(plan)
}

// republish rebuilds every region's grid-state snapshot at the epoch
// boundary, while the engine is stopped. Every Rank call until the next
// boundary scores these frozen snapshots.
func (w *world) republish(now time.Duration) error {
	for i, pub := range w.Publishers {
		// Each iteration pins a different region's publisher at the same
		// agreed boundary instant — the repeat is across publishers, not
		// a stale repin of one.
		if s := pub.Snapshot(now); s == nil {
			return fmt.Errorf("traffic: republish %s at %v produced no snapshot", w.Top.Regions[i], now)
		}
	}
	return nil
}
