package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/topo"
	"github.com/hpclab/datagrid/internal/workload"
)

// PlanetScaleResult is one grid size of the planet-scale sweep. Every field is
// a virtual-time or count measurement, so the rendered table is
// byte-identical at any -parallel value; wall-clock cost lives in
// BENCH_scale.json, not here.
type PlanetScaleResult struct {
	// Label names the grid point ("200-site").
	Label string
	// Sites, Hosts, Regions, Files describe the generated world.
	Sites   int
	Hosts   int
	Regions int
	Files   int
	// Queries and Flows are the workload sizes.
	Queries int
	Flows   int
	// TreeBuilds is the number of Dijkstra sweeps of the core netsim ran,
	// one per region hub some cross-region route left through;
	// PathBuilds is the number of distinct (src,dst) paths materialized —
	// exactly the Dijkstra runs the old per-pair cache would have paid.
	TreeBuilds uint64
	PathBuilds uint64
	// RegionsConsulted and HostsScanned are the hierarchical selection
	// totals; MaxSingleRank is the largest single region rank, which must
	// stay bounded by the file replica count, never the world.
	RegionsConsulted uint64
	HostsScanned     uint64
	MaxSingleRank    int
	// MeanTransferSec averages the cross-region flows' virtual transfer
	// times.
	MeanTransferSec float64
	// ReallocEvents and ComponentsDirtied count the partitioned
	// allocator's events over the whole run and the component allocations
	// they triggered (netsim.ReallocStats); ReallocRounds and FlowsScanned
	// count the water-fills that actually ran — none for a component whose
	// links all keep head-room. MaxComponentFlows is the largest connected
	// component ever allocated and MaxRoundFlows the most flows any single
	// round scanned — the scan bound that must track the largest
	// component, not the world's flow count.
	ReallocEvents     uint64
	ReallocRounds     uint64
	FlowsScanned      uint64
	ComponentsDirtied uint64
	MaxComponentFlows int
	MaxRoundFlows     int
}

// DijkstraSavings is PathBuilds/TreeBuilds: how many single-pair
// Dijkstra runs each shortest-path-tree sweep replaced.
func (r PlanetScaleResult) DijkstraSavings() float64 {
	if r.TreeBuilds == 0 {
		return 0
	}
	return float64(r.PathBuilds) / float64(r.TreeBuilds)
}

// scalePoint is one sweep entry: the topology spec plus catalog and
// workload sizes.
type scalePoint struct {
	label string
	// tier derives the point's seed from the experiment seed.
	tier     int64
	spec     topo.Spec // Seed filled per point from the experiment seed
	files    int
	replicas int
	queries  int
	flows    int
}

// scaleSweep is the sites x flows x catalog-size grid. The last point is
// the acceptance scenario: 200 sites, 10k hosts, a million-entry
// catalog.
var scaleSweep = []scalePoint{
	{
		label:    "20-site",
		tier:     1,
		spec:     topo.Spec{Regions: 4, SitesPerRegion: 5, ClustersPerSite: 2, HostsPerCluster: 10},
		files:    10_000,
		replicas: 3,
		queries:  200,
		flows:    24,
	},
	{
		label:    "80-site",
		tier:     2,
		spec:     topo.Spec{Regions: 8, SitesPerRegion: 10, ClustersPerSite: 2, HostsPerCluster: 15},
		files:    100_000,
		replicas: 3,
		queries:  300,
		flows:    48,
	},
	{
		label:    "200-site",
		tier:     3,
		spec:     topo.Spec{Regions: 10, SitesPerRegion: 20, ClustersPerSite: 2, HostsPerCluster: 25},
		files:    1_000_000,
		replicas: 3,
		queries:  400,
		flows:    64,
	},
}

const (
	scaleFlowBytes = 64 * workload.MB
	scaleFlowGap   = 2 * time.Second
)

// runScalePoint measures one grid size: a query phase (hierarchical
// selection over the sharded catalog) and a flow phase (cross-region
// transfers of the selected replicas), then collects the route-tree and
// hierarchy counters. All randomness comes from rngs seeded off
// pointSeed, so the result is a pure function of (seed, point).
func runScalePoint(pointSeed int64, p scalePoint) (PlanetScaleResult, error) {
	spec := p.spec
	spec.Seed = pointSeed
	eng := simulation.NewEngine()
	w, err := topo.NewWorld(spec, eng, p.files, p.replicas, 2048*workload.MB)
	if err != nil {
		return PlanetScaleResult{}, err
	}
	res := PlanetScaleResult{
		Label:   p.label,
		Sites:   p.spec.Sites(),
		Hosts:   p.spec.Hosts(),
		Regions: p.spec.Regions,
		Files:   p.files,
		Queries: p.queries,
		Flows:   p.flows,
	}

	// Query phase: rank seeded-random files through the hierarchy. Every
	// host is monitored, so every query must answer.
	rng := rand.New(rand.NewSource(pointSeed + 2))
	pick := func() string { return fmt.Sprintf("lfn:d%d", rng.Intn(p.files)) }
	for q := 0; q < p.queries; q++ {
		if _, err := w.Server.SelectBest(pick(), eng.Now()); err != nil {
			return PlanetScaleResult{}, fmt.Errorf("query %d: %w", q, err)
		}
	}
	// The scan bound is the whole point of the hierarchy: no single rank
	// may ever exceed the file replica count, let alone a shard or the
	// world.
	if st := w.Server.Stats(); st.MaxSingleRank > p.replicas {
		return PlanetScaleResult{}, fmt.Errorf("hierarchy scanned %d hosts in one rank, replica bound is %d",
			st.MaxSingleRank, p.replicas)
	}

	// Flow phase: select a replica for each of p.flows files and pull it
	// to a seeded-random host in a different region. Every pair is drawn
	// before the clock starts; launches are staggered on the virtual clock.
	done := 0
	var totalSec float64
	var runErr error
	for f := 0; f < p.flows; f++ {
		best, err := w.Server.SelectBest(pick(), eng.Now())
		if err != nil {
			return PlanetScaleResult{}, fmt.Errorf("flow pick %d: %w", f, err)
		}
		src := best.Location.Host
		dstRegion := w.Top.Regions[rng.Intn(len(w.Top.Regions))]
		for dstRegion == topo.RegionOfHost(src) {
			dstRegion = w.Top.Regions[rng.Intn(len(w.Top.Regions))]
		}
		dsts := w.Top.HostsByRegion[dstRegion]
		dst := dsts[rng.Intn(len(dsts))]
		at := time.Duration(f) * scaleFlowGap
		if _, err := eng.After(at, func(time.Duration) {
			_, err := w.Testbed.Network().StartFlow(src, dst, scaleFlowBytes,
				netsim.FlowOptions{WindowBytes: 1 << 20}, netsim.FlowFunc(func(fl *netsim.Flow) {
					totalSec += (eng.Now() - at).Seconds()
					done++
				}))
			if err != nil && runErr == nil {
				runErr = fmt.Errorf("flow %s -> %s: %w", src, dst, err)
			}
		}); err != nil {
			return PlanetScaleResult{}, err
		}
	}
	err = settle(eng, stallLimit, "planet-scale flows",
		func() bool { return done == p.flows || runErr != nil })
	if err != nil {
		return PlanetScaleResult{}, fmt.Errorf("%w (%d/%d landed)", err, done, p.flows)
	}
	if runErr != nil {
		return PlanetScaleResult{}, runErr
	}
	if done > 0 {
		res.MeanTransferSec = totalSec / float64(done)
	}

	rs := w.Testbed.Network().RouteStats()
	hs := w.Server.Stats()
	ps := w.Testbed.Network().ReallocStats()
	res.TreeBuilds = rs.TreeBuilds
	res.PathBuilds = rs.PathBuilds
	res.RegionsConsulted = hs.RegionsConsulted
	res.HostsScanned = hs.HostsScanned
	res.MaxSingleRank = hs.MaxSingleRank
	res.ReallocEvents = ps.Events
	res.ReallocRounds = ps.Rounds
	res.FlowsScanned = ps.FlowsScanned
	res.ComponentsDirtied = ps.ComponentsDirtied
	res.MaxComponentFlows = ps.MaxComponentFlows
	res.MaxRoundFlows = ps.MaxRoundFlows
	return res, nil
}

// ExtensionPlanetScale sweeps grid size from 20 to 200 sites (400 to
// 10,000 hosts, 10k- to million-entry catalogs), exercising the three
// planet-scale mechanisms together: per-source route trees in netsim,
// the region-sharded replica catalog, and two-level hierarchical
// selection. Each grid point is an independent world; results are pure
// counts and virtual times, identical at any worker count.
func ExtensionPlanetScale(seed int64, workers int) ([]PlanetScaleResult, string, error) {
	out, err := sweep(workers, "planet scale", scaleSweep, func(p scalePoint) (PlanetScaleResult, error) {
		return runScalePoint(seed+p.tier*104729, p)
	})
	if err != nil {
		return nil, "", err
	}
	for _, r := range out {
		// The acceptance bar for routing on the core: every region hangs
		// below its hub, so no grid may sweep more than one tree per region.
		if r.TreeBuilds > uint64(r.Regions) {
			return nil, "", fmt.Errorf("%s: %d route tree sweeps, above its %d regions",
				r.Label, r.TreeBuilds, r.Regions)
		}
		// The acceptance bar for the partitioned allocator: a reallocation
		// round never scans more flows than the largest connected
		// component, and at the largest grid that component is strictly
		// smaller than the world's flow count (at small grids the staggered
		// transfers can all merge across the shared backbone, so only the
		// big point separates component from world).
		if r.MaxRoundFlows > r.MaxComponentFlows {
			return nil, "", fmt.Errorf("%s: a reallocate round scanned %d flows, above the largest component's %d",
				r.Label, r.MaxRoundFlows, r.MaxComponentFlows)
		}
		if r.Sites >= 200 && r.MaxComponentFlows >= r.Flows {
			return nil, "", fmt.Errorf("%s: largest component holds all %d flows — allocation work is world-sized, not component-sized",
				r.Label, r.MaxComponentFlows)
		}
	}
	return out, planetScaleColumns.table(
		"Extension: planet scale (sharded hierarchical selection + per-source route trees)", out), nil
}

// planetScaleColumns are the planet-scale sweep's columns.
var planetScaleColumns = columns[PlanetScaleResult]{
	key: func(r PlanetScaleResult) string { return "planetscale/" + r.Label },
	cols: []column[PlanetScaleResult]{
		{"grid", "%s", "grid", "%s", false, func(r PlanetScaleResult) any { return r.Label }},
		{"sites", "%d", "sites", "%d", false, func(r PlanetScaleResult) any { return r.Sites }},
		{"hosts", "%d", "hosts", "%d", false, func(r PlanetScaleResult) any { return r.Hosts }},
		{"", "", "regions", "%d", false, func(r PlanetScaleResult) any { return r.Regions }},
		{"files", "%d", "files", "%d", false, func(r PlanetScaleResult) any { return r.Files }},
		{"queries", "%d", "queries", "%d", false, func(r PlanetScaleResult) any { return r.Queries }},
		{"flows", "%d", "flows", "%d", false, func(r PlanetScaleResult) any { return r.Flows }},
		{"tree builds", "%d", "tree_builds", "%d", true, func(r PlanetScaleResult) any { return r.TreeBuilds }},
		{"pair dijkstras", "%d", "pair_dijkstras", "%d", true, func(r PlanetScaleResult) any { return r.PathBuilds }},
		{"savings", "%.1fx", "dijkstra_savings", "%.1f", true, func(r PlanetScaleResult) any { return r.DijkstraSavings() }},
		{"", "", "regions_consulted", "%d", false, func(r PlanetScaleResult) any { return r.RegionsConsulted }},
		{"", "", "hosts_scanned", "%d", false, func(r PlanetScaleResult) any { return r.HostsScanned }},
		{"hosts/rank max", "%d", "max_single_rank", "%d", true, func(r PlanetScaleResult) any { return r.MaxSingleRank }},
		{"mean xfer (s)", "%.2f", "mean_xfer_sec", "%.3f", true, func(r PlanetScaleResult) any { return r.MeanTransferSec }},
		{"", "", "realloc_events", "%d", true, func(r PlanetScaleResult) any { return r.ReallocEvents }},
		{"", "", "realloc_rounds", "%d", true, func(r PlanetScaleResult) any { return r.ReallocRounds }},
		{"", "", "flows_scanned", "%d", true, func(r PlanetScaleResult) any { return r.FlowsScanned }},
		{"", "", "comps_dirtied", "%d", true, func(r PlanetScaleResult) any { return r.ComponentsDirtied }},
		{"", "", "max_comp_flows", "%d", true, func(r PlanetScaleResult) any { return r.MaxComponentFlows }},
		{"", "", "max_round_flows", "%d", true, func(r PlanetScaleResult) any { return r.MaxRoundFlows }},
	},
}
