package replica

// The catalog oracle. Below the sweep, this file keeps the map-based
// catalog the package shipped before the dense store — a flat Catalog of
// nested maps and a ShardedCatalog of sixteen name-hashed metadata stripes
// plus one mirrored Catalog per region — verbatim but for the type names
// and the operations the store no longer has, as the reference the sweep
// drives beside the one store.

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// oracleCases is how many seeded op sequences the differential sweep must
// cover. Tier-1 runs the default; CI raises it under the race detector
// (-oracle.cases=10000). A test-binary flag, not a program knob.
var oracleCases = flag.Int("oracle.cases", 1000, "op sequences the catalog oracle sweep diffs")

// reads is what the flat catalog, the sharded catalog and a region shard
// all answer, in the store and in the reference alike.
type reads interface {
	Logical(name string) (LogicalFile, error)
	LogicalNames() []string
	Locations(name string) ([]Location, error)
	HostsWith(name string) ([]string, error)
}

// subject is one catalog under the sweep. The region parts are nil on
// the flat catalog.
type subject struct {
	reads
	CreateLogical func(LogicalFile) error
	Register      func(string, Location) error
	Unregister    func(name, host, path string) error

	RegionsWith func(string) ([]string, error)
	Shard       func(region string) reads
}

func storeFlat() subject {
	c := NewCatalog()
	return subject{reads: c, CreateLogical: c.CreateLogical, Register: c.Register, Unregister: c.Unregister}
}

func referenceFlat() subject {
	c := newOracleCatalog()
	return subject{reads: c, CreateLogical: c.CreateLogical, Register: c.Register, Unregister: c.Unregister}
}

func storeSharded() subject {
	s := NewSharded(oracleRegionOf)
	return subject{reads: s, CreateLogical: s.CreateLogical, Register: s.Register, Unregister: s.Unregister,
		RegionsWith: s.RegionsWith, Shard: func(r string) reads { return s.Shard(r) }}
}

func referenceSharded() subject {
	s := newOracleSharded(oracleRegionOf)
	return subject{reads: s, CreateLogical: s.CreateLogical, Register: s.Register, Unregister: s.Unregister,
		RegionsWith: s.RegionsWith, Shard: func(r string) reads { return s.Shard(r) }}
}

// The sweep's alphabets. The hosts are the ordering trap: every list is
// ordered by host + ":" + path, and a host that extends another by a byte
// below ':' (a digit, '-', '.') sorts before it there and after it as a
// (host, path) pair. No host holds a ':' — two distinct locations would
// then share a string, and the reference's unstable sort leaves their
// order open. A host's region is its first byte.
var (
	oracleNames   = []string{"f", "g", "lfn:h", "run-1", "ghost"}
	oracleHosts   = []string{"n1", "n10", "n1-b", "a", "a-b", "a.b", "a0", "b", "b/x", ""}
	oraclePaths   = []string{"/p", "/q", "/p/r", ""}
	oracleRegions = []string{"n", "a", "b", "zz"}
	oracleAttrs   = []map[string]string{nil, {"k": "x"}, {"k": "y", "t": "x"}, {"k": "", "t": "y"}, {"t": ""}}
)

func oracleRegionOf(host string) string { return host[:1] }

type opKind int

const (
	opCreate opKind = iota
	opRegister
	opUnregister
	opReads
	opShard
	opKinds
)

// op is one step of a sequence; which fields matter depends on kind.
type op struct {
	kind                     opKind
	name, host, path, region string
	attrs                    map[string]string
	size                     int64
	at                       time.Duration
	variant                  int
}

// opWeights is each kind's share of a sequence, in percent: files are
// registered more often than unregistered, so that they fill, drain to
// their last replica and fill again.
var opWeights = [opKinds]int{opCreate: 10, opRegister: 30, opUnregister: 25, opReads: 23, opShard: 12}

func randomOp(rng *rand.Rand) op {
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	o := op{
		name: pick(oracleNames), host: pick(oracleHosts), path: pick(oraclePaths),
		region:  pick(oracleRegions),
		attrs:   oracleAttrs[rng.Intn(len(oracleAttrs))],
		size:    int64(rng.Intn(8)), // 0 is invalid
		at:      time.Duration(rng.Intn(1000)) * time.Second,
		variant: rng.Intn(5),
	}
	for w := rng.Intn(100); w >= opWeights[o.kind]; o.kind++ {
		w -= opWeights[o.kind]
	}
	return o
}

// errString renders an error as its sentinel identities and its text.
func errString(err error) string {
	if err == nil {
		return "ok"
	}
	s := ""
	for _, id := range []struct {
		name string
		err  error
	}{{"UnknownLogical", ErrUnknownLogical}, {"NoReplicas", ErrNoReplicas}, {"Duplicate", ErrDuplicate},
		{"UnknownReplica", ErrUnknownReplica}} {
		if errors.Is(err, id.err) {
			s += id.name + " "
		}
	}
	return s + "(" + err.Error() + ")"
}

func show(v any, err error) string { return fmt.Sprintf("%+v %s", v, errString(err)) }

// apply runs the op on a subject and renders everything it answered.
func (o op) apply(s subject) string {
	switch o.kind {
	case opCreate:
		// The catalog must copy the attributes: the caller's map changes
		// under it right after.
		attrs := map[string]string{}
		for k, v := range o.attrs {
			attrs[k] = v
		}
		err := s.CreateLogical(LogicalFile{Name: o.name, SizeBytes: o.size, Attributes: attrs})
		attrs["k"] = "mutated"
		return errString(err)
	case opRegister:
		return errString(s.Register(o.name, Location{Host: o.host, Path: o.path, RegisteredAt: o.at}))
	case opUnregister:
		if o.host == "" {
			return "skipped" // the region of no host is undefined
		}
		return errString(s.Unregister(o.name, o.host, o.path))
	case opReads:
		out := show(s.Logical(o.name)) + "\n" + show(s.Locations(o.name)) + "\n" + show(s.HostsWith(o.name)) +
			"\n" + show(s.LogicalNames(), nil)
		if s.RegionsWith != nil {
			out += "\n" + show(s.RegionsWith(o.name))
		}
		return out
	case opShard:
		if s.Shard == nil {
			return "flat"
		}
		return show(s.Shard(o.region).Locations(o.name))
	}
	panic("unknown op")
}

// oracleTally counts the edge cases a sweep reached, so that a generator
// that stops reaching them fails instead of passing quietly.
type oracleTally struct {
	duplicates, unknownReplicas, lastRemovals, staleMirrors, trapOrders int
}

// diffSequence drives one seeded op sequence through a store catalog and
// its reference and returns the first disagreement.
func diffSequence(seed int64, sharded bool, store, reference subject, tally *oracleTally) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 120; i++ {
		o := randomOp(rng)
		if o.kind == opUnregister && o.variant > 0 {
			// Mostly aim at a replica that is there, or files never drain.
			if locs, err := reference.Locations(o.name); err == nil {
				l := locs[rng.Intn(len(locs))]
				o.host, o.path = l.Host, l.Path
			}
		}
		got, want := o.apply(store), o.apply(reference)
		switch {
		case o.kind == opShard && sharded && strings.Contains(want, "(") && strings.Contains(got, "("):
			// The region holds no replica of the file. The reference says
			// whatever its mirror remembers: unknown if the region never
			// held one, no replicas if it once did. The store must say
			// what is true now.
			_, err := store.Logical(o.name)
			fixed := ErrNoReplicas
			if err != nil {
				fixed = ErrUnknownLogical
			}
			if !strings.HasPrefix(got, "[] "+errString(fmt.Errorf("%w: %q", fixed, o.name))) {
				return fmt.Errorf("seed %d op %d %+v: shard answered %s, want %v", seed, i, o, got, fixed)
			}
			if got != want {
				tally.staleMirrors++
			}
			continue
		case got != want:
			return fmt.Errorf("seed %d op %d %+v:\n store     %s\n reference %s", seed, i, o, got, want)
		}
		switch {
		case strings.HasPrefix(got, "Duplicate"):
			tally.duplicates++
		case strings.HasPrefix(got, "UnknownReplica"):
			tally.unknownReplicas++
		case o.kind == opUnregister && got == "ok":
			if _, err := store.Locations(o.name); errors.Is(err, ErrNoReplicas) {
				tally.lastRemovals++
			}
		case o.kind == opReads && strings.Contains(got, "n10:/p") && strings.Contains(got, "n1:/p"):
			tally.trapOrders++
		}
		// A shard's metadata is the store's, never a mirror gone stale.
		if sharded && o.kind == opShard {
			if a, b := show(store.Shard(o.region).Logical(o.name)), show(store.Logical(o.name)); a != b {
				return fmt.Errorf("seed %d op %d: shard %q knows %s, catalog %s", seed, i, o.region, a, b)
			}
		}
	}
	return nil
}

// sweep runs cases sequences, half flat and half sharded, through wrap
// (the mutation under test, or the identity) and returns the first
// disagreement.
func sweep(cases int, wrap func(subject) subject, tally *oracleTally) error {
	for seed := int64(1); seed <= int64(cases); seed++ {
		store, reference := storeFlat(), referenceFlat()
		if seed%2 == 0 {
			store, reference = storeSharded(), referenceSharded()
		}
		if err := diffSequence(seed, seed%2 == 0, wrap(store), reference, tally); err != nil {
			return err
		}
	}
	return nil
}

// TestCatalogOracle diffs the dense store against the map-based catalog it
// replaced over seeded random op sequences: every result and every error,
// by identity and by text.
func TestCatalogOracle(t *testing.T) {
	var tally oracleTally
	if err := sweep(*oracleCases, func(s subject) subject { return s }, &tally); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d sequences: %+v", *oracleCases, tally)
	if tally.duplicates == 0 || tally.unknownReplicas == 0 || tally.lastRemovals == 0 ||
		tally.staleMirrors == 0 || tally.trapOrders == 0 {
		t.Fatalf("generator lost its edge cases: %+v", tally)
	}
}

// TestCatalogOracleCatchesMutations is the oracle's own check: a catalog
// that orders locations as (host, path) pairs, and one that leaves a
// region in RegionsWith after its last replica there is unregistered,
// must not pass.
func TestCatalogOracleCatchesMutations(t *testing.T) {
	tupleOrder := func(s subject) subject {
		inner := s.reads
		s.reads = tupleOrdered{inner}
		return s
	}
	stickyRegions := func(s subject) subject {
		if s.RegionsWith == nil {
			return s
		}
		left := map[string][]string{}
		unregister, regionsWith := s.Unregister, s.RegionsWith
		s.Unregister = func(name, host, path string) error {
			err := unregister(name, host, path)
			if err == nil {
				left[name] = append(left[name], oracleRegionOf(host))
			}
			return err
		}
		s.RegionsWith = func(name string) ([]string, error) {
			regions, err := regionsWith(name)
			if err != nil && !errors.Is(err, ErrNoReplicas) || len(left[name]) == 0 {
				return regions, err
			}
			regions = append(regions, left[name]...)
			slices.Sort(regions)
			return slices.Compact(regions), nil
		}
		return s
	}
	for name, mutate := range map[string]func(subject) subject{"tuple order": tupleOrder, "sticky region": stickyRegions} {
		if err := sweep(*oracleCases, mutate, &oracleTally{}); err == nil {
			t.Errorf("%s: the mutation passed the oracle", name)
		} else {
			t.Logf("%s: caught: %v", name, strings.SplitN(err.Error(), "\n", 2)[0])
		}
	}
}

// tupleOrdered re-sorts Locations by (Host, Path) instead of by string.
type tupleOrdered struct{ reads }

func (m tupleOrdered) Locations(name string) ([]Location, error) {
	locs, err := m.reads.Locations(name)
	slices.SortFunc(locs, func(a, b Location) int {
		if a.Host != b.Host {
			return strings.Compare(a.Host, b.Host)
		}
		return strings.Compare(a.Path, b.Path)
	})
	return locs, err
}

// The reference: the catalog as it was.

// Catalog is the replica catalog server. It is purely a name service: it
// stores no file data and performs no transfers. All methods are safe for
// concurrent use: a real catalog server fields registrations and lookups
// from many clients at once.
type oracleCatalog struct {
	mu        sync.RWMutex
	files     map[string]*LogicalFile
	locations map[string][]Location
}

// newOracleCatalog returns an empty catalog.
func newOracleCatalog() *oracleCatalog {
	return &oracleCatalog{
		files:     make(map[string]*LogicalFile),
		locations: make(map[string][]Location),
	}
}

// CreateLogical registers a new logical file name.
func (c *oracleCatalog) CreateLogical(f LogicalFile) error {
	if f.Name == "" {
		return errors.New("replica: empty logical file name")
	}
	if f.SizeBytes <= 0 {
		return fmt.Errorf("replica: logical file %q needs positive size, got %d", f.Name, f.SizeBytes)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.files[f.Name]; ok {
		return fmt.Errorf("%w: logical file %q", ErrDuplicate, f.Name)
	}
	cp := f
	cp.Attributes = make(map[string]string, len(f.Attributes))
	for k, v := range f.Attributes {
		cp.Attributes[k] = v
	}
	c.files[f.Name] = &cp
	return nil
}

// Logical returns the logical file record.
func (c *oracleCatalog) Logical(name string) (LogicalFile, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.files[name]
	if !ok {
		return LogicalFile{}, fmt.Errorf("%w: %q", ErrUnknownLogical, name)
	}
	cp := *f
	cp.Attributes = make(map[string]string, len(f.Attributes))
	for k, v := range f.Attributes {
		cp.Attributes[k] = v
	}
	return cp, nil
}

// LogicalNames lists all logical files, sorted.
func (c *oracleCatalog) LogicalNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.files))
	for n := range c.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Register adds a physical location for a logical file.
func (c *oracleCatalog) Register(name string, loc Location) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.files[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownLogical, name)
	}
	if loc.Host == "" || loc.Path == "" {
		return fmt.Errorf("replica: location needs host and path, got %q:%q", loc.Host, loc.Path)
	}
	for _, l := range c.locations[name] {
		if l.Host == loc.Host && l.Path == loc.Path {
			return fmt.Errorf("%w: %s for %q", ErrDuplicate, loc, name)
		}
	}
	c.locations[name] = append(c.locations[name], loc)
	return nil
}

// Unregister removes a physical location record. It does not delete data.
func (c *oracleCatalog) Unregister(name string, host, path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.files[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownLogical, name)
	}
	locs := c.locations[name]
	for i, l := range locs {
		if l.Host == host && l.Path == path {
			c.locations[name] = append(locs[:i], locs[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("%w: %s:%s for %q", ErrUnknownReplica, host, path, name)
}

// Locations returns all registered physical copies of a logical file —
// "a list of physical locations for all registered copies" (§3.1).
func (c *oracleCatalog) Locations(name string) ([]Location, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.locationsLocked(name)
}

func (c *oracleCatalog) locationsLocked(name string) ([]Location, error) {
	if _, ok := c.files[name]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownLogical, name)
	}
	locs := c.locations[name]
	if len(locs) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoReplicas, name)
	}
	out := append([]Location(nil), locs...)
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out, nil
}

// HostsWith returns the hosts holding a copy of the logical file, sorted.
func (c *oracleCatalog) HostsWith(name string) ([]string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	locs, err := c.locationsLocked(name)
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

// oracleStripes is the number of metadata lock stripes in a
// oracleSharded. Names hash onto stripes, so catalog-wide operations on
// distinct names proceed in parallel instead of serializing on one lock.
const oracleStripes = 16

// oracleSharded partitions the replica catalog by region: every region
// gets its own *oracleCatalog shard holding only the replicas physically placed
// there, and logical-file metadata lives in name-hashed stripes (each a
// plain *oracleCatalog reused as a metadata store). The point is planet scale — a per-region
// selector consults only its shard, registration in one region never
// contends with lookups in another, and no operation scans the world.
//
// The per-name compound operations (Register, Unregister) serialize on
// the name's stripe lock; operations on names in different
// stripes run concurrently. All methods are safe for concurrent use.
type oracleSharded struct {
	regionOf func(host string) string

	// stripes hold logical-file metadata (no locations), indexed by
	// name hash.
	stripes [oracleStripes]*oracleCatalog
	// stripeMu serializes compound per-name operations within a stripe
	// and guards regs.
	stripeMu [oracleStripes]sync.RWMutex
	// regs[i][name][region] counts the replicas of name placed in
	// region — the RegionsWith answer, maintained under stripeMu[i].
	regs [oracleStripes]map[string]map[string]int

	shardMu sync.RWMutex
	shards  map[string]*oracleCatalog
}

// newOracleSharded returns an empty sharded catalog. regionOf maps a storage
// host name to its region (shard key); it must be pure and total — every
// host a caller registers gets a shard named by its result.
func newOracleSharded(regionOf func(host string) string) *oracleSharded {
	s := &oracleSharded{regionOf: regionOf, shards: make(map[string]*oracleCatalog)}
	for i := range s.stripes {
		s.stripes[i] = newOracleCatalog()
		s.regs[i] = make(map[string]map[string]int)
	}
	return s
}

func (s *oracleSharded) stripeIdx(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % oracleStripes)
}

// Shard returns the region's catalog shard, creating it empty on first
// use, so a region server can bind to its shard before the region holds
// any replica. The shard is live — region servers query it directly
// instead of the global catalog.
func (s *oracleSharded) Shard(region string) *oracleCatalog {
	s.shardMu.RLock()
	c := s.shards[region]
	s.shardMu.RUnlock()
	if c != nil {
		return c
	}
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	if c = s.shards[region]; c == nil {
		c = newOracleCatalog()
		s.shards[region] = c
	}
	return c
}

// CreateLogical registers a new logical file name in its metadata stripe.
func (s *oracleSharded) CreateLogical(f LogicalFile) error {
	i := s.stripeIdx(f.Name)
	s.stripeMu[i].Lock()
	defer s.stripeMu[i].Unlock()
	return s.stripes[i].CreateLogical(f)
}

// Logical returns the logical file record.
func (s *oracleSharded) Logical(name string) (LogicalFile, error) {
	i := s.stripeIdx(name)
	s.stripeMu[i].RLock()
	defer s.stripeMu[i].RUnlock()
	return s.stripes[i].Logical(name)
}

// LogicalNames lists all logical files across stripes, sorted.
func (s *oracleSharded) LogicalNames() []string {
	var out []string
	for i := range s.stripes {
		s.stripeMu[i].RLock()
		out = append(out, s.stripes[i].LogicalNames()...)
		s.stripeMu[i].RUnlock()
	}
	sort.Strings(out)
	return out
}

// Register adds a physical location, routed to the shard of the host's
// region. The logical file is mirrored into the shard on first use so the
// shard is a self-contained Catalog a region selector can query alone.
func (s *oracleSharded) Register(name string, loc Location) error {
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
	if err := sh.CreateLogical(f); err != nil && !oracleIsDuplicate(err) {
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
func (s *oracleSharded) Unregister(name, host, path string) error {
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
func (s *oracleSharded) RegionsWith(name string) ([]string, error) {
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
func (s *oracleSharded) Locations(name string) ([]Location, error) {
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
func (s *oracleSharded) HostsWith(name string) ([]string, error) {
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

func oracleIsDuplicate(err error) bool { return errors.Is(err, ErrDuplicate) }
