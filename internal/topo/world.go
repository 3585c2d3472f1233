package topo

import (
	"math/rand"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/gridstate"
	"github.com/hpclab/datagrid/internal/replica"
	"github.com/hpclab/datagrid/internal/simulation"
)

// World is a generated topology wired end to end: the running testbed,
// the region-sharded catalog filled by PlaceFiles, and a hierarchical
// selection server fed by one publisher per region.
type World struct {
	Top     *Topology
	Testbed *cluster.Testbed
	Catalog *replica.ShardedCatalog
	Server  *core.HierarchicalServer
	// Publishers follows Top.Regions order.
	Publishers []*gridstate.Publisher
}

// hubView derives a region host's HostPerf from the simulated grid,
// observed from the region's hub switch. Rooting every probe at the hub
// means all of a region's routes come from ONE shortest-path tree — the
// planet-scale analogue of a GIIS measuring its own region.
type hubView struct {
	tb  *cluster.Testbed
	hub string
}

func (v hubView) BuildHostPerf(host string, now time.Duration) (gridstate.HostPerf, error) {
	net := v.tb.Network()
	theo, err := net.BottleneckBps(v.hub, host)
	if err != nil {
		return gridstate.HostPerf{}, err
	}
	avail, err := net.AvailableBps(v.hub, host)
	if err != nil {
		return gridstate.HostPerf{}, err
	}
	h, err := v.tb.Host(host)
	if err != nil {
		return gridstate.HostPerf{}, err
	}
	return gridstate.HostPerf{
		Host:             host,
		Local:            v.hub,
		BandwidthMbps:    avail / 1e6,
		TheoreticalMbps:  theo / 1e6,
		BandwidthPercent: 100 * avail / theo,
		CPUIdlePercent:   100 * h.CPUIdle(),
		IOIdlePercent:    100 * h.IOIdle(),
		At:               now,
	}, nil
}

// NewWorld generates spec's topology, builds it on engine and wires the
// selection stack over a catalog of `files` logical files with
// `replicas` copies of fileBytes each. All randomness derives from
// spec.Seed, so the world is a pure function of its arguments.
func NewWorld(spec Spec, engine *simulation.Engine, files, replicas int, fileBytes int64) (*World, error) {
	top, err := Generate(spec)
	if err != nil {
		return nil, err
	}
	tb, err := top.Build(engine)
	if err != nil {
		return nil, err
	}
	// Background load draws follow region order, then generation order
	// within a region, CPU before IO — one fixed draw sequence.
	rng := rand.New(rand.NewSource(spec.Seed + 1))
	for _, region := range top.Regions {
		for _, hn := range top.HostsByRegion[region] {
			h, err := tb.Host(hn)
			if err != nil {
				return nil, err
			}
			if err := h.SetBaseCPULoad(0.05 + 0.85*rng.Float64()); err != nil {
				return nil, err
			}
			if err := h.SetBaseIOLoad(0.05 + 0.85*rng.Float64()); err != nil {
				return nil, err
			}
		}
	}
	cat := replica.NewSharded(RegionOfHost)
	if err := top.PlaceFiles(cat, files, replicas, fileBytes); err != nil {
		return nil, err
	}
	srv, err := core.NewHierarchicalServer(cat, core.PaperWeights, nil)
	if err != nil {
		return nil, err
	}
	w := &World{Top: top, Testbed: tb, Catalog: cat, Server: srv}
	for _, region := range top.Regions {
		hub := top.HubSwitch[region]
		pub, err := gridstate.NewPublisher(hub, top.HostsByRegion[region], hubView{tb: tb, hub: hub})
		if err != nil {
			return nil, err
		}
		if err := srv.AddRegion(region, pub); err != nil {
			return nil, err
		}
		w.Publishers = append(w.Publishers, pub)
	}
	return w, nil
}
