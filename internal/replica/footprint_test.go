package replica_test

import (
	"runtime"
	"testing"

	"github.com/hpclab/datagrid/internal/replica"
	"github.com/hpclab/datagrid/internal/topo"
)

// TestCatalogRetainedBytes pins what a placed file costs the heap: a
// 32-byte record, four 24-byte entries in the slab, its name and four
// paths in the text arena, and two or three slots of the name table —
// about 265 B. Entries holding their path as a string beside a
// map[string]int32 name index kept about 400 B; the map-of-maps catalog
// mirrored into a stripe and four region shards kept about 3.2 KB.
func TestCatalogRetainedBytes(t *testing.T) {
	top, err := topo.Generate(topo.Spec{
		Seed: 42, Regions: 10, SitesPerRegion: 20, ClustersPerSite: 2, HostsPerCluster: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	const files, replicas = 20_000, 4
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cat := replica.NewSharded(topo.RegionOfHost)
	if err := top.PlaceFiles(cat, files, replicas, 64<<20); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perFile := float64(after.HeapAlloc-before.HeapAlloc) / files
	if perFile > 330 {
		t.Fatalf("a placed file retains %.0f B, want <= 330", perFile)
	}
	t.Logf("%.0f B per file over %d files x %d replicas", perFile, files, replicas)
	runtime.KeepAlive(cat)
	runtime.KeepAlive(top)
}
