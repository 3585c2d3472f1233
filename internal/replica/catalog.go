// Package replica implements the replica catalog of paper §1–§3: a name
// service mapping logical file names to registered physical copies. A
// replica is created the way the Globus replica management service creates
// one — copy with GridFTP (a Transfer), then register the new location —
// by whoever drives the copy: placement's executors and the experiments.
package replica

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// Location is one physical copy of a logical file.
type Location struct {
	// Host is the storage host holding the copy.
	Host string
	// Path is the file path on that host.
	Path string
	// RegisteredAt is the virtual time of registration.
	RegisteredAt time.Duration
}

func (l Location) String() string { return l.Host + ":" + l.Path }

// Compare orders locations as strings.Compare(l.String(), o.String())
// does, without building either string. Every list the catalog returns is
// in this order. It is not the (Host, Path) tuple order: "n10:/f" sorts
// before "n1:/f", because '0' — like every digit, '-' and '.' — is below
// the ':' that follows the shorter host.
func (l Location) Compare(o Location) int {
	return compareLoc(l.Host, l.Path, o.Host, o.Path)
}

func compareLoc(ah, ap, bh, bp string) int {
	if ah == bh {
		return strings.Compare(ap, bp)
	}
	n := min(len(ah), len(bh))
	if c := strings.Compare(ah[:n], bh[:n]); c != 0 {
		return c
	}
	// One host is a proper prefix of the other: its ':' and path meet the
	// rest of the longer host. Walk the two concatenations bytewise.
	a, b := [3]string{ah[n:], ":", ap}, [3]string{bh[n:], ":", bp}
	for i, j, x, y := 0, 0, 0, 0; ; x, y = x+1, y+1 {
		for i < 3 && x == len(a[i]) {
			i, x = i+1, 0
		}
		for j < 3 && y == len(b[j]) {
			j, y = j+1, 0
		}
		switch {
		case i == 3 && j == 3:
			return 0
		case i == 3:
			return -1
		case j == 3:
			return 1
		case a[i][x] != b[j][y]:
			return cmp.Compare(a[i][x], b[j][y])
		}
	}
}

// LogicalFile is a catalog entry: a location-independent name plus
// metadata, as in the Globus replica catalog.
type LogicalFile struct {
	// Name is the logical file name, e.g. "file-a" or "lfn:ncbi-nr".
	Name string
	// SizeBytes is the file size (identical across replicas).
	SizeBytes int64
	// Attributes carries free-form metadata ("the characteristics of
	// the desired data", §4.3); the catalog keeps a copy and Logical
	// hands back another.
	Attributes map[string]string
}

// Catalog is the replica catalog server. It is purely a name service: it
// stores no file data and performs no transfers. All methods are safe for
// concurrent use: a real catalog server fields registrations and lookups
// from many clients at once.
//
// A Catalog is a handle on one store. NewCatalog's handle shows every
// location; ShardedCatalog.Shard's shows one region's, and everything else
// — names, sizes, attributes and every write — is the one store's,
// whichever handle it goes through.
type Catalog struct {
	*store
	region int32 // allRegions, or the only region whose locations show
}

const allRegions int32 = -1

// store is the catalog's one copy of everything. Logical names and hosts
// are interned to dense ids on first sight, so a file is one 32-byte
// record in a slice and a location is a 24-byte entry in the slab. Names,
// paths and attributes live in the text arena and records hold spans into
// it, so neither the records, the entries, the attributes nor the name
// table hold a pointer: the collector never scans them (arena.go).
type store struct {
	mu       sync.RWMutex
	regionOf func(host string) string // nil: the flat catalog, one region

	text  text
	slab  slab
	names nameIndex // logical name -> index into files
	files []file
	attrs []attr // the files that have attributes, in file id order

	hostIDs   map[string]int32
	hosts     []host
	regionIDs map[string]int32
	shards    []*Catalog // by region id; shards[i].region == i
	regions   []string   // region names by id
}

type file struct {
	name span
	size int64
	locs run // in Location.Compare order, kept so by Register
}

type entry struct {
	host int32
	path span
	at   time.Duration
}

type attr struct {
	file     int32
	key, val span
}

type host struct {
	name   string
	region int32 // resolved through regionOf once, at intern time
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return newStore(nil) }

func newStore(regionOf func(string) string) *Catalog {
	return &Catalog{region: allRegions, store: &store{
		regionOf:  regionOf,
		names:     newNameIndex(),
		hostIDs:   make(map[string]int32),
		regionIDs: make(map[string]int32),
	}}
}

// Catalog errors.
var (
	ErrUnknownLogical = errors.New("replica: unknown logical file")
	ErrDuplicate      = errors.New("replica: already registered")
	ErrNoReplicas     = errors.New("replica: no replicas registered")
	ErrUnknownReplica = errors.New("replica: unknown replica")
)

// fileLocked returns the named file's record; the caller holds mu.
func (s *store) fileLocked(name string) (*file, error) {
	id, _ := s.find(name)
	if id < 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknownLogical, name)
	}
	return &s.files[id], nil
}

// internRegion and internHost return the id of a name, assigning the next
// one on first sight; the caller holds mu for writing.
func (s *store) internRegion(name string) int32 {
	id, ok := s.regionIDs[name]
	if !ok {
		id = int32(len(s.regions))
		s.regionIDs[name] = id
		s.regions = append(s.regions, name)
		s.shards = append(s.shards, &Catalog{store: s, region: id})
	}
	return id
}

func (s *store) internHost(name string) int32 {
	id, ok := s.hostIDs[name]
	if !ok {
		h := host{name: name}
		if s.regionOf != nil {
			h.region = s.internRegion(s.regionOf(name))
		}
		id = int32(len(s.hosts))
		s.hostIDs[name] = id
		s.hosts = append(s.hosts, h)
	}
	return id
}

// CreateLogical registers a new logical file name.
func (c *Catalog) CreateLogical(f LogicalFile) error {
	if f.Name == "" {
		return errors.New("replica: empty logical file name")
	}
	if f.SizeBytes <= 0 {
		return fmt.Errorf("replica: logical file %q needs positive size, got %d", f.Name, f.SizeBytes)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.growNames()
	id, slot := c.find(f.Name)
	if id >= 0 {
		return fmt.Errorf("%w: logical file %q", ErrDuplicate, f.Name)
	}
	id = int32(len(c.files))
	c.names.slots[slot] = id + 1
	c.files = append(c.files, file{name: c.text.add(f.Name), size: f.SizeBytes})
	for k, v := range f.Attributes {
		c.attrs = append(c.attrs, attr{file: id, key: c.text.add(k), val: c.text.add(v)})
	}
	return nil
}

// Logical returns the logical file record.
func (c *Catalog) Logical(name string) (LogicalFile, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	id, _ := c.find(name)
	if id < 0 {
		return LogicalFile{}, fmt.Errorf("%w: %q", ErrUnknownLogical, name)
	}
	from, _ := slices.BinarySearchFunc(c.attrs, id, func(a attr, id int32) int { return cmp.Compare(a.file, id) })
	to := from
	for to < len(c.attrs) && c.attrs[to].file == id {
		to++
	}
	f := &c.files[id]
	out := LogicalFile{Name: c.text.str(f.name), SizeBytes: f.size, Attributes: make(map[string]string, to-from)}
	for _, a := range c.attrs[from:to] {
		out.Attributes[c.text.str(a.key)] = c.text.str(a.val)
	}
	return out, nil
}

// LogicalNames lists all logical files, sorted.
func (c *Catalog) LogicalNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, len(c.files))
	for i := range c.files {
		out[i] = c.text.str(c.files[i].name)
	}
	slices.Sort(out)
	return out
}

// Register adds a physical location for a logical file.
func (c *Catalog) Register(name string, loc Location) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, err := c.fileLocked(name)
	if err != nil {
		return err
	}
	if loc.Host == "" || loc.Path == "" {
		return fmt.Errorf("replica: location needs host and path, got %q:%q", loc.Host, loc.Path)
	}
	h := c.internHost(loc.Host)
	locs := c.slab.entries(f.locs)
	at, path := len(locs), span{}
	for i, e := range locs {
		p := c.text.str(e.path)
		if p == loc.Path {
			if e.host == h {
				return fmt.Errorf("%w: %s for %q", ErrDuplicate, loc, name)
			}
			path = e.path // another host's copy under the same path: share its text
		}
		if at == len(locs) && compareLoc(c.hosts[e.host].name, p, loc.Host, loc.Path) > 0 {
			at = i
		}
	}
	if path.n == 0 {
		path = c.text.add(loc.Path)
	}
	c.slab.insert(&f.locs, at, entry{host: h, path: path, at: loc.RegisteredAt})
	return nil
}

// Unregister removes a physical location record. It does not delete data,
// and the catalog keeps the path's text.
func (c *Catalog) Unregister(name string, host, path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, err := c.fileLocked(name)
	if err != nil {
		return err
	}
	h, known := c.hostIDs[host]
	for i, e := range c.slab.entries(f.locs) {
		if known && e.host == h && c.text.str(e.path) == path {
			c.slab.remove(&f.locs, i)
			return nil
		}
	}
	return fmt.Errorf("%w: %s:%s for %q", ErrUnknownReplica, host, path, name)
}

// Locations returns all registered physical copies of a logical file —
// "a list of physical locations for all registered copies" (§3.1) — in
// Location.Compare order.
func (c *Catalog) Locations(name string) ([]Location, error) {
	var buf [8]Tagged
	tagged, err := c.AppendTagged(buf[:0], name)
	if err != nil {
		return nil, err
	}
	out := make([]Location, len(tagged))
	for i, t := range tagged {
		out[i] = t.Location
	}
	return out, nil
}

// Tagged is a location with the catalog's dense ids for its host and the
// host's region. Ids are assigned on first sight and never change, so a
// reader may index its own tables by them; HostNames and
// ShardedCatalog.RegionNames map them back to names.
type Tagged struct {
	Location
	HostID, RegionID int32
}

// AppendTagged is the one read a selection makes: under one read lock and
// one name lookup it appends the file's locations that this handle shows
// to dst, tagged, in Location.Compare order. It allocates only when dst
// lacks the room, and dst comes back as it went in beside an error.
func (c *Catalog) AppendTagged(dst []Tagged, name string) ([]Tagged, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, err := c.fileLocked(name)
	if err != nil {
		return dst, err
	}
	locs := c.slab.entries(f.locs)
	out := slices.Grow(dst, len(locs))
	for _, e := range locs {
		if h := &c.hosts[e.host]; c.region == allRegions || c.region == h.region {
			out = append(out, Tagged{
				Location: Location{Host: h.name, Path: c.text.str(e.path), RegisteredAt: e.at},
				HostID:   e.host, RegionID: h.region,
			})
		}
	}
	if len(out) == len(dst) {
		return dst, fmt.Errorf("%w: %q", ErrNoReplicas, name)
	}
	return out, nil
}

// HostNames returns the names of the hosts with ids from `from` on, in id
// order, or nil when the catalog has interned no host past from. Hosts are
// the store's, whichever handle asks.
func (c *Catalog) HostNames(from int) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if from >= len(c.hosts) {
		return nil
	}
	out := make([]string, len(c.hosts)-from)
	for i := range out {
		out[i] = c.hosts[from+i].name
	}
	return out
}
