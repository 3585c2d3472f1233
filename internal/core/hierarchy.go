package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/hpclab/datagrid/internal/gridstate"
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

// HierarchicalServer is the thin top tier: it reads the file's locations
// from the catalog once, tagged with their region ids, and has each
// region's SelectionServer rank its part against its own snapshot — a
// GIIS-style aggregation point that never sees other regions' hosts, so
// its cost is bounded by the shard, not the grid — and merges the
// per-region bests in the same best-first order every rank sorts by. For
// the cost-model selector the hierarchical choice therefore equals the
// flat choice while scanning only the involved shards.
//
// Must run on the simulation goroutine (ranking pins region snapshots,
// which may rebuild them).
type HierarchicalServer struct {
	catalog  *replica.ShardedCatalog
	weights  Weights
	selector Selector
	// regions, names and order are indexed by catalog region id and cover
	// every region the catalog had interned at their last refresh:
	// the region's server (nil until AddRegion), its name, and its rank
	// among the names in ascending order — the order regions are consulted
	// in.
	regions []*SelectionServer
	names   []string
	order   []int32
	stats   HierarchyStats
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
	return &HierarchicalServer{catalog: catalog, weights: weights, selector: selector}, nil
}

// refreshRegions catches the id-indexed tables up with the regions the
// catalog has interned since the last refresh.
func (h *HierarchicalServer) refreshRegions() {
	h.names = h.catalog.RegionNames()
	h.regions = append(h.regions, make([]*SelectionServer, len(h.names)-len(h.regions))...)
	byName := make([]int32, len(h.names))
	for i := range byName {
		byName[i] = int32(i)
	}
	slices.SortFunc(byName, func(a, b int32) int { return strings.Compare(h.names[a], h.names[b]) })
	h.order = make([]int32, len(h.names))
	for rank, id := range byName {
		h.order[id] = int32(rank)
	}
}

// AddRegion registers the snapshot source for one region and binds a
// selection server to the region's catalog shard. The shard may still be
// empty: replicas registered in the region later are ranked like any
// other.
func (h *HierarchicalServer) AddRegion(region string, source *gridstate.Publisher) error {
	if region == "" {
		return errors.New("core: region needs a name")
	}
	if id := slices.Index(h.names, region); id >= 0 && h.regions[id] != nil {
		return fmt.Errorf("core: region %q already registered", region)
	}
	srv, err := NewSelectionServer(h.catalog.Shard(region), source, h.weights, h.selector)
	if err != nil {
		return fmt.Errorf("core: region %q: %w", region, err)
	}
	h.refreshRegions()
	h.regions[slices.Index(h.names, region)] = srv
	return nil
}

// Regions lists the registered regions, sorted.
func (h *HierarchicalServer) Regions() []string {
	var out []string
	for id, srv := range h.regions {
		if srv != nil {
			out = append(out, h.names[id])
		}
	}
	slices.Sort(out)
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
	var buf [16]replica.Tagged
	locs, err := h.catalog.AppendTagged(buf[:0], logical)
	if err != nil {
		return nil, err
	}
	h.stats.Selections++
	for _, t := range locs {
		if int(t.RegionID) >= len(h.order) {
			h.refreshRegions()
			break
		}
	}
	// Group by region, regions in name order; the stable sort keeps each
	// region's locations in catalog order.
	slices.SortStableFunc(locs, func(a, b replica.Tagged) int {
		return cmp.Compare(h.order[a.RegionID], h.order[b.RegionID])
	})
	var bests [16]ref
	merged := bests[:0]
	regions := 0
	for off := 0; off < len(locs); {
		id := locs[off].RegionID
		n := 1
		for off+n < len(locs) && locs[off+n].RegionID == id {
			n++
		}
		part := locs[off : off+n]
		regions++
		srv := h.regions[id]
		if srv == nil {
			return nil, fmt.Errorf("core: %q has replicas in unregistered region %q", logical, h.names[id])
		}
		h.stats.RegionsConsulted++
		h.stats.HostsScanned += uint64(n)
		h.stats.MaxSingleRank = max(h.stats.MaxSingleRank, n)
		best, _, err := srv.PinView(now).scan(logical, part, nil)
		if err == nil {
			best.i += off
			merged = append(merged, best)
		} else if !errors.Is(err, ErrNoUsableReplica) {
			return nil, err
		}
		off += n
	}
	if len(merged) == 0 {
		return nil, fmt.Errorf("%w: %q monitored in none of its %d regions",
			ErrNoUsableReplica, logical, regions)
	}
	return rankedCandidates(locs, merged), nil
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
