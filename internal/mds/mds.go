package mds

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// Attributes is one directory entry's attribute set.
type Attributes map[string]string

// clone copies an attribute set so callers cannot mutate cached entries.
func (a Attributes) clone() Attributes {
	out := make(Attributes, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// Entry is one object in the directory information tree.
type Entry struct {
	// DN is the distinguished name, e.g.
	// "Mds-Device-name=cpu,Mds-Host-hn=alpha1,Mds-Vo-name=THU,o=grid".
	DN    string
	Attrs Attributes
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

// GRIS is a Grid Resource Information Service: the per-host directory
// server that runs information providers and caches their output.
type GRIS struct {
	engine    *simulation.Engine
	suffix    string
	ttl       time.Duration
	providers []Provider

	cache     []Entry
	cachedAt  time.Duration
	haveCache bool
	collects  int
	rev       uint64
	paused    bool
}

// NewGRIS creates a GRIS answering for suffix (e.g.
// "Mds-Host-hn=alpha1,Mds-Vo-name=THU,o=grid"). Provider output is cached
// for ttl of virtual time, mirroring MDS's cachettl.
func NewGRIS(engine *simulation.Engine, suffix string, ttl time.Duration) (*GRIS, error) {
	if engine == nil {
		return nil, errors.New("mds: GRIS needs an engine")
	}
	if suffix == "" {
		return nil, errors.New("mds: GRIS needs a suffix")
	}
	if ttl < 0 {
		return nil, fmt.Errorf("mds: negative TTL %v", ttl)
	}
	return &GRIS{engine: engine, suffix: suffix, ttl: ttl}, nil
}

// Suffix returns the DN suffix of this server.
func (g *GRIS) Suffix() string { return g.suffix }

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
	g.haveCache = false // force refresh with the new provider
	g.rev++
	return nil
}

// Collects reports how many times providers were invoked (for cache tests).
func (g *GRIS) Collects() int { return g.collects }

// SetPaused suspends (or resumes) provider refreshes: while paused, Search
// keeps serving the stale cache past its TTL and the revision counter
// stops moving — the fault plane's model of an MDS server whose
// information-provider scripts have stopped running.
func (g *GRIS) SetPaused(paused bool) { g.paused = paused }

// Paused reports whether refreshes are currently suspended.
func (g *GRIS) Paused() bool { return g.paused }

// Revision increases whenever the served entries may have changed: a
// provider cache refresh or a provider registration. Snapshot consumers
// (gridstate.Publisher) poll it to detect directory movement.
func (g *GRIS) Revision() uint64 { return g.rev }

// Search runs the filter over this host's entries, refreshing the provider
// cache if it is stale.
func (g *GRIS) Search(f Filter) ([]Entry, error) {
	if f == nil {
		f = MatchAll
	}
	now := g.engine.Now()
	if (!g.haveCache || now-g.cachedAt > g.ttl) && !g.paused {
		entries := make([]Entry, 0, len(g.providers))
		for _, p := range g.providers {
			attrs, err := p.Collect()
			if err != nil {
				// Provider failure drops its entry, as a crashed
				// information-provider script would in MDS.
				continue
			}
			entries = append(entries, Entry{DN: p.RDN() + "," + g.suffix, Attrs: attrs.clone()})
		}
		g.collects++
		g.rev++
		g.cache = entries
		g.cachedAt = now
		g.haveCache = true
	}
	var out []Entry
	for _, e := range g.cache {
		if f.Matches(e.Attrs) {
			out = append(out, Entry{DN: e.DN, Attrs: e.Attrs.clone()})
		}
	}
	return out, nil
}

// GIIS is a Grid Index Information Service: it aggregates registered
// children (GRIS servers or lower-level GIIS) and answers searches over
// the union of their entries, with its own TTL cache.
type GIIS struct {
	engine   *simulation.Engine
	suffix   string
	ttl      time.Duration
	children []Searcher

	cache     []Entry
	cachedAt  time.Duration
	haveCache bool
	queries   int
	rev       uint64
	paused    bool
}

// NewGIIS creates an index server for the given suffix with cache ttl.
func NewGIIS(engine *simulation.Engine, suffix string, ttl time.Duration) (*GIIS, error) {
	if engine == nil {
		return nil, errors.New("mds: GIIS needs an engine")
	}
	if suffix == "" {
		return nil, errors.New("mds: GIIS needs a suffix")
	}
	if ttl < 0 {
		return nil, fmt.Errorf("mds: negative TTL %v", ttl)
	}
	return &GIIS{engine: engine, suffix: suffix, ttl: ttl}, nil
}

// Suffix returns the DN suffix of this server.
func (g *GIIS) Suffix() string { return g.suffix }

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
	g.haveCache = false
	g.rev++
	return nil
}

// Queries reports how many child fan-outs happened (for cache tests).
func (g *GIIS) Queries() int { return g.queries }

// SetPaused suspends (or resumes) child refreshes: while paused, Search
// keeps serving the stale cache past its TTL and the revision counter
// stops moving — a GIIS cut off from its registrants.
func (g *GIIS) SetPaused(paused bool) { g.paused = paused }

// Paused reports whether refreshes are currently suspended.
func (g *GIIS) Paused() bool { return g.paused }

// Revision increases whenever the served entries may have changed: a
// cache refresh against the children or a (re-)registration. Snapshot
// consumers (gridstate.Publisher) poll it to detect directory movement.
func (g *GIIS) Revision() uint64 { return g.rev }

// Search fans the query out to all children (subject to the TTL cache) and
// filters the union. A failing child is skipped — one down site must not
// take out the whole index, which is the point of the hierarchy.
func (g *GIIS) Search(f Filter) ([]Entry, error) {
	if f == nil {
		f = MatchAll
	}
	now := g.engine.Now()
	if (!g.haveCache || now-g.cachedAt > g.ttl) && !g.paused {
		var all []Entry
		for _, c := range g.children {
			es, err := c.Search(MatchAll)
			if err != nil {
				continue
			}
			all = append(all, es...)
		}
		g.queries++
		g.rev++
		g.cache = all
		g.cachedAt = now
		g.haveCache = true
	}
	var out []Entry
	for _, e := range g.cache {
		if f.Matches(e.Attrs) {
			out = append(out, Entry{DN: e.DN, Attrs: e.Attrs.clone()})
		}
	}
	return out, nil
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
// selection read: host, site, device and the idle percentage.
func NewCPUProvider(h Host, site string) Provider {
	return ProviderFunc{
		Rdn: AttrDevice + "=cpu," + AttrHostName + "=" + h.Name(),
		Fn: func() (Attributes, error) {
			return Attributes{
				AttrHostName:    h.Name(),
				AttrSite:        site,
				AttrDevice:      "cpu",
				AttrCPUFreeX100: strconv.Itoa(int(h.CPUIdle() * 100 * 100)),
			}, nil
		},
	}
}
