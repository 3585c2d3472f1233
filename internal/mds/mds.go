// Package mds reimplements the slice of the Globus Monitoring and
// Discovery Service the paper uses (§2.1, §3.2): per-host information
// providers collected by a GRIS (Grid Resource Information Service),
// aggregated hierarchically by GIIS (Grid Index Information Service)
// nodes, queried with equality filters, and cached with TTLs on the
// simulation clock. Served entries are read-only and shared by every tier.
package mds

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// Attributes is the attribute set a provider collects for one entry.
type Attributes map[string]string

// Entry is one object in the directory information tree; its attributes
// are read through Attr.
type Entry struct {
	// DN is the distinguished name, e.g.
	// "Mds-Device-name=cpu,Mds-Host-hn=alpha1,Mds-Vo-name=THU,o=grid".
	DN    string
	attrs Attributes
}

// Attr returns the value of the named attribute and whether it is set.
func (e Entry) Attr(name string) (string, bool) {
	v, ok := e.attrs[name]
	return v, ok
}

// Len returns the number of attributes the entry carries.
func (e Entry) Len() int { return len(e.attrs) }

// Term is one equality test: the entry's Attr attribute is set to Value.
type Term struct{ Attr, Value string }

// Filter is a conjunction of equality terms; the empty filter matches all.
type Filter []Term

func (f Filter) matches(attrs Attributes) bool {
	for _, t := range f {
		if v, ok := attrs[t.Attr]; !ok || v != t.Value {
			return false
		}
	}
	return true
}

// Provider supplies one entry's worth of live information (the analogue of
// an MDS information-provider script invoked by the GRIS back end).
type Provider interface {
	// RDN is the relative distinguished name of the provided entry,
	// e.g. "Mds-Device-name=cpu".
	RDN() string
	// Collect gathers current attribute values.
	Collect() (Attributes, error)
}

// ProviderFunc adapts a function to the Provider interface.
type ProviderFunc struct {
	Rdn string
	Fn  func() (Attributes, error)
}

// RDN returns the entry's relative distinguished name.
func (p ProviderFunc) RDN() string { return p.Rdn }

// Collect invokes the wrapped function.
func (p ProviderFunc) Collect() (Attributes, error) { return p.Fn() }

// Searcher is anything that answers directory searches: a GRIS or a GIIS.
type Searcher interface {
	// Search returns entries matching the filter.
	Search(f Filter) ([]Entry, error)
	// Suffix returns the DN suffix this server is responsible for.
	Suffix() string
}

// TTL is how long a GRIS or GIIS serves its cached entries before the
// next search refreshes them, MDS's cachettl.
const TTL = 5 * time.Second

// cache is the TTL cache a GRIS and a GIIS share; they differ only in
// refresh, which collects the entries the cache serves.
type cache struct {
	engine  *simulation.Engine
	suffix  string
	refresh func() []Entry

	entries   []Entry
	cachedAt  time.Duration
	haveCache bool
	rev       uint64
	paused    bool
}

func newCache(kind string, engine *simulation.Engine, suffix string) (cache, error) {
	if engine == nil {
		return cache{}, fmt.Errorf("mds: %s needs an engine", kind)
	}
	if suffix == "" {
		return cache{}, fmt.Errorf("mds: %s needs a suffix", kind)
	}
	return cache{engine: engine, suffix: suffix}, nil
}

// Suffix returns the DN suffix of this server.
func (c *cache) Suffix() string { return c.suffix }

// SetPaused suspends (or resumes) refreshes: while paused, Search keeps
// serving the stale cache past its TTL and the revision counter stops
// moving — the fault plane's model of a GRIS whose provider scripts have
// stopped, or of a GIIS cut off from its registrants.
func (c *cache) SetPaused(paused bool) { c.paused = paused }

// Revision increases whenever the served entries may have changed: a
// cache refresh or a provider or child registration. Snapshot consumers
// (gridstate.Publisher) poll it to detect directory movement.
func (c *cache) Revision() uint64 { return c.rev }

// invalidate forces a refresh on the next search after a registration.
func (c *cache) invalidate() {
	c.haveCache = false
	c.rev++
}

// Search returns the cached entries matching f, refreshing a stale cache
// first unless refreshes are paused.
func (c *cache) Search(f Filter) ([]Entry, error) {
	now := c.engine.Now()
	if (!c.haveCache || now-c.cachedAt > TTL) && !c.paused {
		c.entries = c.refresh()
		c.rev++
		c.cachedAt = now
		c.haveCache = true
	}
	var out []Entry
	for _, e := range c.entries {
		if f.matches(e.attrs) {
			out = append(out, e)
		}
	}
	return out, nil
}

// GRIS is a Grid Resource Information Service: the per-host directory
// server that runs information providers and caches their output.
type GRIS struct {
	cache
	providers []Provider
}

// NewGRIS creates a GRIS answering for suffix (e.g.
// "Mds-Host-hn=alpha1,Mds-Vo-name=THU,o=grid"). Provider output is cached
// for TTL of virtual time.
func NewGRIS(engine *simulation.Engine, suffix string) (*GRIS, error) {
	c, err := newCache("GRIS", engine, suffix)
	if err != nil {
		return nil, err
	}
	g := &GRIS{cache: c}
	g.refresh = g.collect
	return g, nil
}

// AddProvider registers an information provider.
func (g *GRIS) AddProvider(p Provider) error {
	if p == nil {
		return errors.New("mds: nil provider")
	}
	if p.RDN() == "" {
		return errors.New("mds: provider needs an RDN")
	}
	for _, q := range g.providers {
		if q.RDN() == p.RDN() {
			return fmt.Errorf("mds: duplicate provider %q", p.RDN())
		}
	}
	g.providers = append(g.providers, p)
	g.invalidate()
	return nil
}

// collect runs every provider and copies its output: the one copy an
// attribute set gets, so a provider that later mutates the map it
// returned cannot change what the hierarchy serves.
func (g *GRIS) collect() []Entry {
	entries := make([]Entry, 0, len(g.providers))
	for _, p := range g.providers {
		attrs, err := p.Collect()
		if err != nil {
			// Provider failure drops its entry, as a crashed
			// information-provider script would in MDS.
			continue
		}
		entries = append(entries, Entry{DN: p.RDN() + "," + g.suffix, attrs: maps.Clone(attrs)})
	}
	return entries
}

// GIIS is a Grid Index Information Service: it aggregates registered
// children (GRIS servers or lower-level GIIS) and answers searches over
// the union of their entries, with its own TTL cache.
type GIIS struct {
	cache
	children []Searcher
}

// NewGIIS creates an index server for the given suffix; it caches the
// union of its children's entries for TTL.
func NewGIIS(engine *simulation.Engine, suffix string) (*GIIS, error) {
	c, err := newCache("GIIS", engine, suffix)
	if err != nil {
		return nil, err
	}
	g := &GIIS{cache: c}
	g.refresh = g.fanOut
	return g, nil
}

// Register adds a child server (GRIS or GIIS) permanently, as a static
// MDS configuration would. Registering a child whose suffix is already
// registered replaces it.
func (g *GIIS) Register(s Searcher) error {
	if s == nil {
		return errors.New("mds: nil child")
	}
	i := slices.IndexFunc(g.children, func(c Searcher) bool { return c.Suffix() == s.Suffix() })
	if i >= 0 {
		g.children[i] = s
	} else {
		g.children = append(g.children, s)
	}
	g.invalidate()
	return nil
}

// fanOut collects every child's entries. A failing child is skipped — one
// down site must not take out the whole index, which is the point of the
// hierarchy.
func (g *GIIS) fanOut() []Entry {
	var all []Entry
	for _, c := range g.children {
		es, err := c.Search(nil)
		if err != nil {
			continue
		}
		all = append(all, es...)
	}
	return all
}

// Host is the minimal host surface the CPU provider reads. Both
// *cluster.Host and test fakes satisfy it.
type Host interface {
	Name() string
	CPUIdle() float64
}

// Attribute names of the CPU entry; the X100 suffix follows the real MDS
// convention of scaling percentages by 100 into integers.
const (
	AttrHostName    = "Mds-Host-hn"
	AttrSite        = "Mds-Vo-name"
	AttrDevice      = "Mds-Device-name"
	AttrCPUFreeX100 = "Mds-Cpu-Free-1minX100"
)

// NewCPUProvider returns the provider emitting the CPU device entry for a
// host at site — the "measurement of CPU status … through the Globus
// Toolkit/MDS" of paper §3.2. The entry carries what filters and
// selection read: host, site, device and the idle percentage. The
// provider keeps one map and rewrites only the idle percentage on each
// Collect; the GRIS copies what it serves.
func NewCPUProvider(h Host, site string) Provider {
	attrs := Attributes{AttrHostName: h.Name(), AttrSite: site, AttrDevice: "cpu"}
	return ProviderFunc{
		Rdn: AttrDevice + "=cpu," + AttrHostName + "=" + h.Name(),
		Fn: func() (Attributes, error) {
			attrs[AttrCPUFreeX100] = strconv.Itoa(int(h.CPUIdle() * 100 * 100))
			return attrs, nil
		},
	}
}
