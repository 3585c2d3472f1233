package topo

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/replica"
	"github.com/hpclab/datagrid/internal/simulation"
)

func smallSpec(seed int64) Spec {
	return Spec{Seed: seed, Regions: 3, SitesPerRegion: 2, ClustersPerSite: 2, HostsPerCluster: 3}
}

func TestGenerateShape(t *testing.T) {
	spec := smallSpec(42)
	top, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(top.Config.Sites), spec.Clusters(); got != want {
		t.Errorf("generated %d clusters, want %d", got, want)
	}
	if got, want := len(top.Regions), spec.Regions; got != want {
		t.Errorf("generated %d regions, want %d", got, want)
	}
	hosts := 0
	for _, r := range top.Regions {
		hosts += len(top.HostsByRegion[r])
		if top.HubSwitch[r] == "" {
			t.Errorf("region %s has no hub switch", r)
		}
	}
	if got, want := hosts, spec.Hosts(); got != want {
		t.Errorf("generated %d hosts, want %d", got, want)
	}
	// WAN link count: per site, ClustersPerSite-1 uplinks; per region,
	// SitesPerRegion-1 uplinks; backbone ring has Regions links (>2
	// regions) plus chords >= 0.
	minWAN := spec.Sites()*(spec.ClustersPerSite-1) +
		spec.Regions*(spec.SitesPerRegion-1) + spec.Regions
	if len(top.Config.WAN) < minWAN {
		t.Errorf("generated %d WAN links, want >= %d", len(top.Config.WAN), minWAN)
	}
	// Every host name round-trips through RegionOfHost.
	for _, r := range top.Regions {
		for _, h := range top.HostsByRegion[r] {
			if got := RegionOfHost(h); got != r {
				t.Fatalf("RegionOfHost(%s) = %q, want %q", h, got, r)
			}
		}
		if got := RegionOfHost(top.HubSwitch[r]); got != r {
			t.Errorf("RegionOfHost(%s) = %q, want %q", top.HubSwitch[r], got, r)
		}
	}
	if RegionOfHost("thu-node1") != "" || RegionOfHost("x") != "" {
		t.Error("RegionOfHost should return \"\" for foreign names")
	}
	// Host names also carry their site prefix.
	for _, r := range top.Regions {
		for _, h := range top.HostsByRegion[r] {
			site := SiteOfHost(h)
			if len(site) != 6 || site[:3] != r {
				t.Fatalf("SiteOfHost(%s) = %q, want %s-prefixed site", h, site, r)
			}
		}
	}
	if SiteOfHost("r03s07c1h09") != "r03s07" {
		t.Errorf("SiteOfHost(r03s07c1h09) = %q, want r03s07", SiteOfHost("r03s07c1h09"))
	}
	if SiteOfHost("thu-node1") != "" || SiteOfHost("r03x07") != "" {
		t.Error("SiteOfHost should return \"\" for foreign names")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Config, b.Config) {
		t.Error("same Spec produced different cluster.Config")
	}
	c, err := Generate(smallSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Config.Sites[0].LAN, c.Config.Sites[0].LAN) &&
		reflect.DeepEqual(a.Config.WAN, c.Config.WAN) {
		t.Error("different seeds produced identical link draws")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Spec{Seed: 1}); err == nil {
		t.Error("zero counts should fail validation")
	}
	if _, err := Generate(Spec{Seed: 1, Regions: 101, SitesPerRegion: 1, ClustersPerSite: 1, HostsPerCluster: 1}); err == nil {
		t.Error("overflowing the naming width should fail validation")
	}
}

func TestBuildTestbed(t *testing.T) {
	top, err := Generate(smallSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	eng := simulation.NewEngine()
	tb, err := top.Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tb.Hosts()), top.Spec.Hosts(); got != want {
		t.Errorf("testbed has %d hosts, want %d", got, want)
	}
	// Cross-region connectivity: a route exists between hosts in the
	// first and last regions.
	// Deep hosts (last cluster of the last site) must climb cluster ->
	// site hub -> region hub -> backbone -> down the far side.
	srcHosts := top.HostsByRegion[top.Regions[0]]
	dstHosts := top.HostsByRegion[top.Regions[len(top.Regions)-1]]
	src, dst := srcHosts[len(srcHosts)-1], dstHosts[len(dstHosts)-1]
	path, err := tb.Network().Route(src, dst)
	if err != nil {
		t.Fatalf("no route %s -> %s: %v", src, dst, err)
	}
	if len(path) < 6 {
		t.Errorf("deep cross-region route %s -> %s has only %d hops", src, dst, len(path))
	}
}

func TestPlaceFiles(t *testing.T) {
	top, err := Generate(smallSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	cat := replica.NewSharded(RegionOfHost)
	const files, replicas = 100, 2
	if err := top.PlaceFiles(cat, files, replicas, 1<<30); err != nil {
		t.Fatal(err)
	}
	if got := len(cat.LogicalNames()); got != files {
		t.Fatalf("placed %d logical files, want %d", got, files)
	}
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("lfn:d%d", i)
		regions, err := cat.RegionsWith(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(regions) != replicas {
			t.Errorf("%s placed in %d regions, want %d distinct", name, len(regions), replicas)
		}
		for _, r := range regions {
			locs, err := cat.Shard(r).Locations(name)
			if err != nil || len(locs) == 0 {
				t.Errorf("%s: region %s shard empty: %v", name, r, err)
			}
			for _, l := range locs {
				if RegionOfHost(l.Host) != r {
					t.Errorf("%s: host %s landed in shard %s", name, l.Host, r)
				}
			}
		}
	}
	// Placement is deterministic: a second catalog from the same
	// topology matches exactly.
	cat2 := replica.NewSharded(RegionOfHost)
	if err := top.PlaceFiles(cat2, files, replicas, 1<<30); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("lfn:d%d", i)
		a, _ := cat.Locations(name)
		b, _ := cat2.Locations(name)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s placed on %v then %v", name, a, b)
		}
	}
	// Replicas can't exceed the region count.
	if err := top.PlaceFiles(replica.NewSharded(RegionOfHost), 1, len(top.Regions)+1, 1); err == nil {
		t.Error("replicas > regions should fail")
	}
}

func TestBoundaryCut(t *testing.T) {
	top, err := Generate(smallSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	cut, minDelay, err := top.BoundaryCut()
	if err != nil {
		t.Fatal(err)
	}
	if len(cut) == 0 {
		t.Fatal("3-region topology must have boundary links")
	}
	// Every cut entry must genuinely cross regions and carry backbone-tier
	// latency (Generate draws backbone delays from [20ms, 80ms)); the
	// returned delay must be the exact minimum.
	min := cut[0].Delay
	for _, b := range cut {
		if b.Regions[0] == b.Regions[1] {
			t.Errorf("link %s->%s reported as boundary inside region %s", b.From, b.To, b.Regions[0])
		}
		if RegionOfHost(b.From) != b.Regions[0] || RegionOfHost(b.To) != b.Regions[1] {
			t.Errorf("link %s->%s regions %v do not match endpoints", b.From, b.To, b.Regions)
		}
		if b.Delay < 20*time.Millisecond || b.Delay >= 100*time.Millisecond {
			t.Errorf("boundary link %s->%s delay %v outside the backbone tier", b.From, b.To, b.Delay)
		}
		if b.Delay < min {
			min = b.Delay
		}
	}
	if minDelay != min {
		t.Errorf("min delay = %v, want minimum boundary delay %v", minDelay, min)
	}
	// Cross-check against a raw scan of the WAN config: the cut is exactly
	// the inter-region subset, in WAN order.
	var want []string
	for _, w := range top.Config.WAN {
		if RegionOfHost(w.From) != RegionOfHost(w.To) {
			want = append(want, w.From+"->"+w.To)
		}
	}
	var got []string
	for _, b := range cut {
		got = append(got, b.From+"->"+b.To)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cut links = %v, want %v", got, want)
	}

	single, err := Generate(Spec{Seed: 1, Regions: 1, SitesPerRegion: 2, ClustersPerSite: 1, HostsPerCluster: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := single.BoundaryCut(); err == nil {
		t.Error("single-region topology: want no-cut error")
	}
}

// TestNewWorldSparsePlacement: a world whose placement leaves regions
// without any replica must still build, and its one placed file ranks.
func TestNewWorldSparsePlacement(t *testing.T) {
	spec := Spec{Seed: 1, Regions: 4, SitesPerRegion: 1, ClustersPerSite: 1, HostsPerCluster: 2}
	w, err := NewWorld(spec, simulation.NewEngine(), 1, 1, 1<<20)
	if err != nil {
		t.Fatalf("sparse world: %v", err)
	}
	if got := w.Server.Regions(); !reflect.DeepEqual(got, w.Top.Regions) {
		t.Fatalf("server regions %v, want every generated region %v", got, w.Top.Regions)
	}
	name := w.Catalog.LogicalNames()[0]
	holding, err := w.Catalog.RegionsWith(name)
	if err != nil || len(holding) != 1 {
		t.Fatalf("%s held by %v (%v), want one region", name, holding, err)
	}
	best, err := w.Server.SelectBest(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := RegionOfHost(best.Location.Host); got != holding[0] {
		t.Errorf("best replica %v is in %s, want %s", best.Location, got, holding[0])
	}
}
