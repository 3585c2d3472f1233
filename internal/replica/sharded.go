package replica

import (
	"fmt"
	"slices"
)

// ShardedCatalog is a catalog that knows which region every host is in,
// so that a region's selector reads only the replicas placed there and
// the top tier groups one AppendTagged read by region id — no operation
// scans the world. It is the same one store as the flat
// Catalog it embeds (the all-regions handle: Register, Locations and the
// rest answer for the whole grid); a host's region is resolved once, when
// the host is first seen.
type ShardedCatalog struct{ *Catalog }

// NewSharded returns an empty sharded catalog. regionOf maps a storage
// host name to its region (shard key); it must be pure and total — every
// host a caller registers gets a shard named by its result — and, being
// called with the catalog locked, must not call back into it.
func NewSharded(regionOf func(host string) string) *ShardedCatalog {
	return &ShardedCatalog{newStore(regionOf)}
}

// Shard returns the region's view of the catalog, creating the region on
// first use, so a region server can bind to its shard before the region
// holds any replica. The view is live and shows the region's locations
// only; it is the same handle on every call.
func (s *ShardedCatalog) Shard(region string) *Catalog {
	s.mu.RLock()
	id, ok := s.regionIDs[region]
	if ok {
		defer s.mu.RUnlock()
		return s.shards[id]
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[s.internRegion(region)]
}

// RegionsWith lists the regions holding at least one replica of the
// logical file, sorted.
func (s *ShardedCatalog) RegionsWith(name string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := s.fileLocked(name)
	if err != nil {
		return nil, err
	}
	if f.locs.n == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoReplicas, name)
	}
	var buf [8]string
	out := buf[:0]
	for _, e := range s.slab.entries(f.locs) {
		if r := s.regions[s.hosts[e.host].region]; !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	slices.Sort(out)
	return slices.Clone(out), nil
}

// RegionNames returns the region names by region id: the ids
// AppendTagged's locations carry.
func (s *ShardedCatalog) RegionNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.regions)
}
