package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/hpclab/datagrid/internal/replica"
)

// HierarchyStats is the hierarchical server's cumulative scan
// accounting — the observable proof that selection work is bounded by
// shards, not the world.
type HierarchyStats struct {
	// Selections is the number of SelectBest/Rank calls served.
	Selections uint64
	// RegionsConsulted is the total region servers asked (only regions
	// actually holding a replica are ever consulted).
	RegionsConsulted uint64
	// HostsScanned is the total catalog locations scanned across all
	// region ranks, unmonitored ones included.
	HostsScanned uint64
	// MaxSingleRank is the largest location count any single region rank
	// scanned — must never exceed the largest shard.
	MaxSingleRank int
}

// HierarchicalServer is the thin top tier: it asks RegionsWith for the
// regions holding the file, has each region's SelectionServer rank its
// own shard against its own snapshot — a GIIS-style aggregation point
// that never sees other regions' hosts, so its cost is bounded by the
// shard, not the grid — and merges the per-region bests in the same
// best-first order every rank sorts by. For the cost-model selector the
// hierarchical choice therefore equals the flat choice while scanning
// only the involved shards.
//
// Must run on the simulation goroutine (ranking pins region snapshots,
// which may rebuild them).
type HierarchicalServer struct {
	catalog  *replica.ShardedCatalog
	weights  Weights
	selector Selector
	regions  map[string]*SelectionServer
	stats    HierarchyStats
}

// NewHierarchicalServer wires the top tier over a sharded catalog.
// selector defaults to the cost model with the given weights when nil.
func NewHierarchicalServer(catalog *replica.ShardedCatalog, weights Weights, selector Selector) (*HierarchicalServer, error) {
	if catalog == nil {
		return nil, errors.New("core: hierarchical server needs a sharded catalog")
	}
	if err := weights.Validate(); err != nil {
		return nil, err
	}
	if selector == nil {
		selector = CostModelSelector{Weights: weights}
	}
	return &HierarchicalServer{
		catalog:  catalog,
		weights:  weights,
		selector: selector,
		regions:  make(map[string]*SelectionServer),
	}, nil
}

// AddRegion registers the snapshot source for one region and binds a
// selection server to the region's catalog shard. The shard may still be
// empty: replicas registered in the region later are ranked like any
// other.
func (h *HierarchicalServer) AddRegion(region string, source SnapshotSource) error {
	if region == "" {
		return errors.New("core: region needs a name")
	}
	if _, dup := h.regions[region]; dup {
		return fmt.Errorf("core: region %q already registered", region)
	}
	srv, err := NewSelectionServer(h.catalog.Shard(region), source, h.weights, h.selector)
	if err != nil {
		return fmt.Errorf("core: region %q: %w", region, err)
	}
	h.regions[region] = srv
	return nil
}

// Regions lists the registered regions, sorted.
func (h *HierarchicalServer) Regions() []string {
	out := make([]string, 0, len(h.regions))
	for r := range h.regions {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Stats returns the cumulative scan accounting.
func (h *HierarchicalServer) Stats() HierarchyStats { return h.stats }

// Rank returns the per-region bests of the logical file merged
// best-first. Regions whose replicas are all unmonitored are skipped;
// ErrNoUsableReplica is returned when every region is. A region holding
// replicas but never registered via AddRegion is an error — silently
// ignoring it would hide misconfiguration.
func (h *HierarchicalServer) Rank(logical string, now time.Duration) ([]Candidate, error) {
	var buf [8]string
	regions, err := h.catalog.AppendRegionsWith(buf[:0], logical)
	if err != nil {
		return nil, err
	}
	h.stats.Selections++
	merged := make([]Candidate, 0, len(regions))
	for _, region := range regions {
		srv, ok := h.regions[region]
		if !ok {
			return nil, fmt.Errorf("core: %q has replicas in unregistered region %q", logical, region)
		}
		h.stats.RegionsConsulted++
		best, scanned, err := srv.PinView(now).scan(logical, nil)
		h.stats.HostsScanned += uint64(scanned)
		if scanned > h.stats.MaxSingleRank {
			h.stats.MaxSingleRank = scanned
		}
		if err != nil {
			if errors.Is(err, ErrNoUsableReplica) {
				continue
			}
			return nil, err
		}
		merged = append(merged, best)
	}
	if len(merged) == 0 {
		return nil, fmt.Errorf("%w: %q monitored in none of its %d regions",
			ErrNoUsableReplica, logical, len(regions))
	}
	slices.SortStableFunc(merged, bestFirst)
	return merged, nil
}

// SelectBest applies the configured selector to the merged per-region
// bests. With the cost-model selector this equals flat selection's
// choice: the globally best candidate is necessarily its own region's
// best, so it survives the merge, and both tiers order by (score desc,
// location asc).
func (h *HierarchicalServer) SelectBest(logical string, now time.Duration) (Candidate, error) {
	merged, err := h.Rank(logical, now)
	if err != nil {
		return Candidate{}, err
	}
	return pick(h.selector, merged)
}
