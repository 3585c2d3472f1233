package mds

import (
	"errors"
	"math"
	"strconv"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

type fakeTarget struct {
	name    string
	cpuIdle float64
}

func (f *fakeTarget) Name() string     { return f.name }
func (f *fakeTarget) CPUIdle() float64 { return f.cpuIdle }

// attr reads one attribute of e, "" when it is not set.
func attr(e Entry, name string) string {
	v, _ := e.Attr(name)
	return v
}

func TestFilterEquality(t *testing.T) {
	cpu := Attributes{AttrHostName: "alpha1", AttrDevice: "cpu"}
	for _, c := range []struct {
		f     Filter
		attrs Attributes
		want  bool
	}{
		{Filter{{AttrHostName, "alpha1"}}, cpu, true},
		{Filter{{AttrHostName, "alpha2"}}, cpu, false},
		{Filter{{AttrSite, "alpha1"}}, cpu, false}, // attribute not set
		{Filter{{AttrSite, ""}}, cpu, false},       // unset is not empty
		{Filter{{AttrHostName, "alpha1"}, {AttrDevice, "cpu"}}, cpu, true},
		{Filter{{AttrHostName, "alpha1"}, {AttrDevice, "disk"}}, cpu, false},
	} {
		if got := c.f.matches(c.attrs); got != c.want {
			t.Errorf("%v matches %v = %v, want %v", c.f, c.attrs, got, c.want)
		}
	}
}

// TestMatchAll: the empty filter matches every entry, even one without
// attributes.
func TestMatchAll(t *testing.T) {
	for _, f := range []Filter{nil, {}} {
		if !f.matches(nil) || !f.matches(Attributes{"x": "y"}) {
			t.Fatalf("%#v must match everything", f)
		}
	}
}

func newGRIS(t *testing.T, eng *simulation.Engine) *GRIS {
	t.Helper()
	g, err := NewGRIS(eng, "Mds-Host-hn=alpha1,Mds-Vo-name=THU,o=grid")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGRISProvidersAndSearch(t *testing.T) {
	eng := simulation.NewEngine()
	g := newGRIS(t, eng)
	h := &fakeTarget{name: "alpha1", cpuIdle: 0.75}
	if err := g.AddProvider(NewCPUProvider(h, "THU")); err != nil {
		t.Fatal(err)
	}
	// A second device's entry, so filters have something to tell apart.
	if err := g.AddProvider(ProviderFunc{Rdn: "Mds-Device-name=disk", Fn: func() (Attributes, error) {
		return Attributes{"Mds-Host-hn": "alpha1", "Mds-Device-name": "disk", "Mds-Io-Free-percentX100": "9000"}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	all, err := g.Search(nil)
	if err != nil || len(all) != 2 {
		t.Fatalf("Search(nil) = %v, %v", all, err)
	}
	cpu, err := g.Search(Filter{{AttrDevice, "cpu"}})
	if err != nil || len(cpu) != 1 {
		t.Fatalf("cpu search = %v, %v", cpu, err)
	}
	if got := attr(cpu[0], AttrCPUFreeX100); got != "7500" {
		t.Fatalf("CPU free = %q, want 7500", got)
	}
	if cpu[0].DN != "Mds-Device-name=cpu,Mds-Host-hn=alpha1,Mds-Host-hn=alpha1,Mds-Vo-name=THU,o=grid" {
		// provider RDN includes host; suffix includes host too — verify shape
		t.Logf("DN = %s", cpu[0].DN)
	}
	disk, err := g.Search(Filter{{"Mds-Host-hn", "alpha1"}, {"Mds-Io-Free-percentX100", "9000"}})
	if err != nil || len(disk) != 1 || disk[0].DN != "Mds-Device-name=disk,"+g.Suffix() {
		t.Fatalf("disk idle search = %v, %v", disk, err)
	}
}

func TestGRISCacheTTL(t *testing.T) {
	if TTL != 5*time.Second {
		t.Fatalf("TTL = %v, want 5s", TTL)
	}
	eng := simulation.NewEngine()
	g := newGRIS(t, eng)
	h := &fakeTarget{name: "alpha1", cpuIdle: 1.0}
	if err := g.AddProvider(NewCPUProvider(h, "THU")); err != nil {
		t.Fatal(err)
	}
	// Nothing registers below, so every revision step is a refresh.
	rev := g.Revision()
	if _, err := g.Search(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Search(nil); err != nil {
		t.Fatal(err)
	}
	if got := g.Revision() - rev; got != 1 {
		t.Fatalf("collects = %d, want 1 (second search cached)", got)
	}
	// Change the live value: a cached search must NOT see it.
	h.cpuIdle = 0.5
	es, _ := g.Search(nil)
	if attr(es[0], AttrCPUFreeX100) != "10000" {
		t.Fatalf("cached value should be stale: %v", attr(es[0], AttrCPUFreeX100))
	}
	// At TTL the cache still serves; after it the fresh value must appear.
	if _, err := eng.Schedule(TTL, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if es, _ := g.Search(nil); attr(es[0], AttrCPUFreeX100) != "10000" {
		t.Fatalf("value at TTL = %v, want the cached 10000", attr(es[0], AttrCPUFreeX100))
	}
	if _, err := eng.Schedule(TTL+time.Second, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	es, _ = g.Search(nil)
	if attr(es[0], AttrCPUFreeX100) != "5000" {
		t.Fatalf("post-TTL value = %v, want 5000", attr(es[0], AttrCPUFreeX100))
	}
	if got := g.Revision() - rev; got != 2 {
		t.Fatalf("collects = %d, want 2", got)
	}
}

func TestGRISFailingProviderSkipped(t *testing.T) {
	eng := simulation.NewEngine()
	g := newGRIS(t, eng)
	if err := g.AddProvider(ProviderFunc{Rdn: "a=1", Fn: func() (Attributes, error) { return Attributes{"k": "v"}, nil }}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddProvider(ProviderFunc{Rdn: "a=2", Fn: func() (Attributes, error) { return nil, errors.New("crashed") }}); err != nil {
		t.Fatal(err)
	}
	es, err := g.Search(nil)
	if err != nil || len(es) != 1 {
		t.Fatalf("search = %v, %v; want only healthy provider", es, err)
	}
}

func TestGRISValidation(t *testing.T) {
	eng := simulation.NewEngine()
	if _, err := NewGRIS(nil, "s"); err == nil {
		t.Fatal("nil engine should be rejected")
	}
	if _, err := NewGRIS(eng, ""); err == nil {
		t.Fatal("empty suffix should be rejected")
	}
	g := newGRIS(t, eng)
	if err := g.AddProvider(nil); err == nil {
		t.Fatal("nil provider should be rejected")
	}
	if err := g.AddProvider(ProviderFunc{Rdn: "", Fn: func() (Attributes, error) { return nil, nil }}); err == nil {
		t.Fatal("empty RDN should be rejected")
	}
	p := ProviderFunc{Rdn: "a=1", Fn: func() (Attributes, error) { return nil, nil }}
	if err := g.AddProvider(p); err != nil {
		t.Fatal(err)
	}
	if err := g.AddProvider(p); err == nil {
		t.Fatal("duplicate RDN should be rejected")
	}
}

// TestProviderMutationWaitsForRefresh: a GRIS copies a provider's output
// when it refreshes, so a provider that later mutates the map it returned
// changes nothing the hierarchy serves until the next refresh.
func TestProviderMutationWaitsForRefresh(t *testing.T) {
	eng := simulation.NewEngine()
	g := newGRIS(t, eng)
	owned := Attributes{"k": "original"}
	if err := g.AddProvider(ProviderFunc{Rdn: "a=1", Fn: func() (Attributes, error) { return owned, nil }}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Search(nil); err != nil {
		t.Fatal(err)
	}
	owned["k"] = "mutated"
	owned["extra"] = "x"
	es, _ := g.Search(Filter{{"k", "original"}})
	if len(es) != 1 || attr(es[0], "k") != "original" || es[0].Len() != 1 {
		t.Fatalf("provider mutation reached the cached entry: %v", es)
	}
	if _, err := eng.Schedule(2*TTL, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if es, _ := g.Search(nil); attr(es[0], "k") != "mutated" || es[0].Len() != 2 {
		t.Fatalf("refresh did not pick up the provider's new output: %v", es)
	}
}

// buildHierarchy assembles host GRIS -> site GIIS -> top GIIS, the MDS
// deployment of the paper's testbed.
func buildHierarchy(t *testing.T, eng *simulation.Engine) (*GIIS, map[string]*fakeTarget) {
	t.Helper()
	top, err := NewGIIS(eng, "Mds-Vo-name=grid,o=grid")
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]*fakeTarget{}
	for site, names := range map[string][]string{
		"THU": {"alpha1", "alpha4"},
		"HIT": {"hit0"},
	} {
		siteGIIS, err := NewGIIS(eng, "Mds-Vo-name="+site+",o=grid")
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			h := &fakeTarget{name: n, cpuIdle: 0.5}
			hosts[n] = h
			gris, err := NewGRIS(eng, "Mds-Host-hn="+n+",Mds-Vo-name="+site+",o=grid")
			if err != nil {
				t.Fatal(err)
			}
			if err := gris.AddProvider(NewCPUProvider(h, site)); err != nil {
				t.Fatal(err)
			}
			if err := siteGIIS.Register(gris); err != nil {
				t.Fatal(err)
			}
		}
		if err := top.Register(siteGIIS); err != nil {
			t.Fatal(err)
		}
	}
	return top, hosts
}

func TestGIISHierarchicalSearch(t *testing.T) {
	eng := simulation.NewEngine()
	top, _ := buildHierarchy(t, eng)
	all, err := top.Search(nil)
	if err != nil || len(all) != 3 {
		t.Fatalf("top search = %d entries, %v; want 3", len(all), err)
	}
	thu, err := top.Search(Filter{{AttrSite, "THU"}})
	if err != nil || len(thu) != 2 {
		t.Fatalf("THU search = %d, %v; want 2", len(thu), err)
	}
	one, err := top.Search(Filter{{AttrHostName, "hit0"}})
	if err != nil || len(one) != 1 || attr(one[0], AttrHostName) != "hit0" {
		t.Fatalf("hit0 search = %v, %v", one, err)
	}
	sites := map[string]bool{}
	for _, e := range all {
		sites[attr(e, AttrSite)] = true
	}
	if len(sites) != 2 {
		t.Fatalf("top search spans sites %v, want THU and HIT", sites)
	}
}

// TestWarmTopSearchAllocatesNoAttributeMap: every tier serves the entry the
// GRIS copied at refresh, so a warm top-GIIS query for one host's CPU
// entry allocates the result slice and nothing else.
func TestWarmTopSearchAllocatesNoAttributeMap(t *testing.T) {
	eng := simulation.NewEngine()
	top, _ := buildHierarchy(t, eng)
	f := Filter{{AttrHostName, "hit0"}, {AttrDevice, "cpu"}}
	if es, err := top.Search(f); err != nil || len(es) != 1 {
		t.Fatalf("warm-up search = %v, %v", es, err)
	}
	if avg := testing.AllocsPerRun(100, func() { _, _ = top.Search(f) }); avg > 1 {
		t.Fatalf("warm search allocates %v objects, want only the result slice", avg)
	}
}

func TestGIISCacheTTL(t *testing.T) {
	eng := simulation.NewEngine()
	top, hosts := buildHierarchy(t, eng)
	rev := top.Revision()
	if _, err := top.Search(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := top.Search(nil); err != nil {
		t.Fatal(err)
	}
	if got := top.Revision() - rev; got != 1 {
		t.Fatalf("queries = %d, want 1", got)
	}
	hosts["alpha1"].cpuIdle = 0.1
	// Advance past the TTL every tier of the hierarchy shares.
	if _, err := eng.Schedule(TTL+time.Second, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	es, err := top.Search(Filter{{AttrHostName, "alpha1"}})
	if err != nil || len(es) != 1 {
		t.Fatal(err)
	}
	want := strconv.Itoa(int(0.1 * 100 * 100))
	if attr(es[0], AttrCPUFreeX100) != want {
		t.Fatalf("post-TTL cpu free = %v, want %v", attr(es[0], AttrCPUFreeX100), want)
	}
}

type failingSearcher struct{}

func (failingSearcher) Search(Filter) ([]Entry, error) { return nil, errors.New("site down") }
func (failingSearcher) Suffix() string                 { return "down" }

func TestGIISFailingChildSkipped(t *testing.T) {
	eng := simulation.NewEngine()
	top, _ := buildHierarchy(t, eng)
	if err := top.Register(failingSearcher{}); err != nil {
		t.Fatal(err)
	}
	es, err := top.Search(nil)
	if err != nil || len(es) != 3 {
		t.Fatalf("search with failing child = %d, %v; want 3", len(es), err)
	}
}

func TestGIISValidation(t *testing.T) {
	eng := simulation.NewEngine()
	if _, err := NewGIIS(nil, "s"); err == nil {
		t.Fatal("nil engine should be rejected")
	}
	if _, err := NewGIIS(eng, ""); err == nil {
		t.Fatal("empty suffix should be rejected")
	}
	g, err := NewGIIS(eng, "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Register(nil); err == nil {
		t.Fatal("nil child should be rejected")
	}
	server := func(v string) *GRIS {
		s, _ := NewGRIS(eng, "c")
		if err := s.AddProvider(ProviderFunc{Rdn: "a=1", Fn: func() (Attributes, error) { return Attributes{"k": v}, nil }}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	child := server("first")
	if err := g.Register(child); err != nil {
		t.Fatal(err)
	}
	// Registering the same suffix again is not an error and not a second child.
	if err := g.Register(child); err != nil {
		t.Fatalf("re-registration should succeed: %v", err)
	}
	if es, _ := g.Search(nil); len(es) != 1 {
		t.Fatalf("re-registration duplicated the child: %v", es)
	}
	// A different server under the same suffix replaces the first.
	if err := g.Register(server("second")); err != nil {
		t.Fatal(err)
	}
	if es, _ := g.Search(nil); len(es) != 1 || attr(es[0], "k") != "second" {
		t.Fatalf("same-suffix registration should replace the child: %v", es)
	}
}

// TestCPUProviderCollectAllocs: the CPU provider keeps one map and
// rewrites the idle percentage in it, so a Collect allocates only that
// value's string; the GRIS's clone is the one copy of the map.
func TestCPUProviderCollectAllocs(t *testing.T) {
	h := &fakeTarget{name: "h", cpuIdle: 0.5}
	p := NewCPUProvider(h, "s")
	allocs := testing.AllocsPerRun(100, func() {
		h.cpuIdle += 0.001
		if _, err := p.Collect(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Collect allocates %v times, want 1", allocs)
	}
	attrs, _ := p.Collect()
	if attrs[AttrHostName] != "h" || attrs[AttrSite] != "s" || attrs[AttrDevice] != "cpu" || len(attrs) != 4 {
		t.Fatalf("CPU entry = %v", attrs)
	}
}

func TestProviderPercentScaling(t *testing.T) {
	h := &fakeTarget{name: "h", cpuIdle: 0.333}
	attrs, err := NewCPUProvider(h, "s").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if attrs[AttrCPUFreeX100] != "3330" {
		t.Fatalf("cpu free x100 = %q, want 3330", attrs[AttrCPUFreeX100])
	}
}
