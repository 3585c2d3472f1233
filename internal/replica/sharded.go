package replica

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// shardStripes is the number of metadata lock stripes in a
// ShardedCatalog. Names hash onto stripes, so catalog-wide operations on
// distinct names proceed in parallel instead of serializing on one lock.
const shardStripes = 16

// ShardedCatalog partitions the replica catalog by region: every region
// gets its own *Catalog shard holding only the replicas physically placed
// there, and logical-file metadata lives in name-hashed stripes (each a
// plain *Catalog reused as a metadata store, so the inverted attribute
// index works per stripe). The point is planet scale — a per-region
// selector consults only its shard, registration in one region never
// contends with lookups in another, and no operation scans the world.
//
// The per-name compound operations (Register, Unregister, DeleteLogical)
// serialize on the name's stripe lock; operations on names in different
// stripes run concurrently. All methods are safe for concurrent use.
type ShardedCatalog struct {
	regionOf func(host string) string

	// stripes hold logical-file metadata (no locations), indexed by
	// name hash. Each stripe is a full Catalog so FindByAttributes gets
	// the inverted index for free.
	stripes [shardStripes]*Catalog
	// stripeMu serializes compound per-name operations within a stripe
	// and guards regs.
	stripeMu [shardStripes]sync.RWMutex
	// regs[i][name][region] counts the replicas of name placed in
	// region — the RegionsWith answer, maintained under stripeMu[i].
	regs [shardStripes]map[string]map[string]int

	shardMu sync.RWMutex
	shards  map[string]*Catalog
}

// NewSharded returns an empty sharded catalog. regionOf maps a storage
// host name to its region (shard key); it must be pure and total — every
// host a caller registers gets a shard named by its result.
func NewSharded(regionOf func(host string) string) *ShardedCatalog {
	s := &ShardedCatalog{regionOf: regionOf, shards: make(map[string]*Catalog)}
	for i := range s.stripes {
		s.stripes[i] = NewCatalog()
		s.regs[i] = make(map[string]map[string]int)
	}
	return s
}

func (s *ShardedCatalog) stripeIdx(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % shardStripes)
}

// Shard returns the region's catalog shard, creating it empty on first
// use, so a region server can bind to its shard before the region holds
// any replica. The shard is live — region servers query it directly
// instead of the global catalog.
func (s *ShardedCatalog) Shard(region string) *Catalog {
	s.shardMu.RLock()
	c := s.shards[region]
	s.shardMu.RUnlock()
	if c != nil {
		return c
	}
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	if c = s.shards[region]; c == nil {
		c = NewCatalog()
		s.shards[region] = c
	}
	return c
}

// Regions lists every region whose shard exists, sorted.
func (s *ShardedCatalog) Regions() []string {
	s.shardMu.RLock()
	defer s.shardMu.RUnlock()
	out := make([]string, 0, len(s.shards))
	for r := range s.shards {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// CreateLogical registers a new logical file name in its metadata stripe.
func (s *ShardedCatalog) CreateLogical(f LogicalFile) error {
	i := s.stripeIdx(f.Name)
	s.stripeMu[i].Lock()
	defer s.stripeMu[i].Unlock()
	return s.stripes[i].CreateLogical(f)
}

// Logical returns the logical file record.
func (s *ShardedCatalog) Logical(name string) (LogicalFile, error) {
	i := s.stripeIdx(name)
	s.stripeMu[i].RLock()
	defer s.stripeMu[i].RUnlock()
	return s.stripes[i].Logical(name)
}

// LogicalNames lists all logical files across stripes, sorted.
func (s *ShardedCatalog) LogicalNames() []string {
	var out []string
	for i := range s.stripes {
		s.stripeMu[i].RLock()
		out = append(out, s.stripes[i].LogicalNames()...)
		s.stripeMu[i].RUnlock()
	}
	sort.Strings(out)
	return out
}

// FindByAttributes merges the per-stripe inverted-index queries, sorted.
func (s *ShardedCatalog) FindByAttributes(want map[string]string) []string {
	var out []string
	for i := range s.stripes {
		s.stripeMu[i].RLock()
		out = append(out, s.stripes[i].FindByAttributes(want)...)
		s.stripeMu[i].RUnlock()
	}
	sort.Strings(out)
	return out
}

// DeleteLogical removes a logical file from its stripe and every region
// shard holding replicas of it.
func (s *ShardedCatalog) DeleteLogical(name string) error {
	i := s.stripeIdx(name)
	s.stripeMu[i].Lock()
	defer s.stripeMu[i].Unlock()
	if err := s.stripes[i].DeleteLogical(name); err != nil {
		return err
	}
	for region := range s.regs[i][name] {
		_ = s.Shard(region).DeleteLogical(name)
	}
	delete(s.regs[i], name)
	return nil
}

// Register adds a physical location, routed to the shard of the host's
// region. The logical file is mirrored into the shard on first use so the
// shard is a self-contained Catalog a region selector can query alone.
func (s *ShardedCatalog) Register(name string, loc Location) error {
	i := s.stripeIdx(name)
	s.stripeMu[i].Lock()
	defer s.stripeMu[i].Unlock()
	f, err := s.stripes[i].Logical(name)
	if err != nil {
		return err
	}
	if loc.Host == "" || loc.Path == "" {
		return fmt.Errorf("replica: location needs host and path, got %q:%q", loc.Host, loc.Path)
	}
	region := s.regionOf(loc.Host)
	sh := s.Shard(region)
	if err := sh.CreateLogical(f); err != nil && !isDuplicate(err) {
		return err
	}
	if err := sh.Register(name, loc); err != nil {
		return err
	}
	counts := s.regs[i][name]
	if counts == nil {
		counts = make(map[string]int)
		s.regs[i][name] = counts
	}
	counts[region]++
	return nil
}

// Unregister removes a physical location record from its region's shard.
func (s *ShardedCatalog) Unregister(name, host, path string) error {
	i := s.stripeIdx(name)
	s.stripeMu[i].Lock()
	defer s.stripeMu[i].Unlock()
	if _, err := s.stripes[i].Logical(name); err != nil {
		return err
	}
	region := s.regionOf(host)
	if err := s.Shard(region).Unregister(name, host, path); err != nil {
		if errors.Is(err, ErrUnknownLogical) {
			// The logical exists globally but was never mirrored into
			// this region's shard: the replica is what's unknown.
			return fmt.Errorf("%w: %s:%s for %q", ErrUnknownReplica, host, path, name)
		}
		return err
	}
	if counts := s.regs[i][name]; counts != nil {
		if counts[region]--; counts[region] <= 0 {
			delete(counts, region)
			if len(counts) == 0 {
				delete(s.regs[i], name)
			}
		}
	}
	return nil
}

// RegionsWith lists the regions holding at least one replica of the
// logical file, sorted — the top-level selector's fan-out set: only these
// regions' shards are consulted, never the world.
func (s *ShardedCatalog) RegionsWith(name string) ([]string, error) {
	i := s.stripeIdx(name)
	s.stripeMu[i].RLock()
	defer s.stripeMu[i].RUnlock()
	if _, err := s.stripes[i].Logical(name); err != nil {
		return nil, err
	}
	counts := s.regs[i][name]
	if len(counts) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoReplicas, name)
	}
	out := make([]string, 0, len(counts))
	for r := range counts {
		out = append(out, r)
	}
	sort.Strings(out)
	return out, nil
}

// Locations merges all regions' location records for the file, sorted —
// the flat-Catalog answer, for callers that do want the global view.
func (s *ShardedCatalog) Locations(name string) ([]Location, error) {
	regions, err := s.RegionsWith(name)
	if err != nil {
		return nil, err
	}
	var out []Location
	for _, r := range regions {
		locs, err := s.Shard(r).Locations(name)
		if err != nil {
			continue // raced with Unregister; counts govern
		}
		out = append(out, locs...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoReplicas, name)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out, nil
}

// HostsWith merges all regions' hosts holding a copy, sorted.
func (s *ShardedCatalog) HostsWith(name string) ([]string, error) {
	locs, err := s.Locations(name)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	for _, l := range locs {
		if !seen[l.Host] {
			seen[l.Host] = true
			out = append(out, l.Host)
		}
	}
	sort.Strings(out)
	return out, nil
}

func isDuplicate(err error) bool { return errors.Is(err, ErrDuplicate) }
