package replica

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// regionByPrefix maps hosts named "<region>-..." to their region.
func regionByPrefix(host string) string {
	if i := strings.IndexByte(host, '-'); i > 0 {
		return host[:i]
	}
	return host
}

func newShardedFixture(t *testing.T) *ShardedCatalog {
	t.Helper()
	s := NewSharded(regionByPrefix)
	files := []LogicalFile{
		{Name: "nr", SizeBytes: 100, Attributes: map[string]string{"type": "bio"}},
		{Name: "est", SizeBytes: 200, Attributes: map[string]string{"type": "bio"}},
		{Name: "run-1", SizeBytes: 300, Attributes: map[string]string{"exp": "cms"}},
	}
	for _, f := range files {
		if err := s.CreateLogical(f); err != nil {
			t.Fatal(err)
		}
	}
	regs := []struct{ name, host string }{
		{"nr", "eu-h1"}, {"nr", "us-h1"}, {"nr", "us-h2"},
		{"est", "ap-h1"},
		{"run-1", "eu-h2"}, {"run-1", "ap-h1"},
	}
	for _, r := range regs {
		if err := s.Register(r.name, Location{Host: r.host, Path: "/data/" + r.name}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestShardedRoutesByRegion(t *testing.T) {
	s := newShardedFixture(t)
	// Each shard holds exactly its region's replicas.
	euHosts, err := s.Shard("eu").HostsWith("nr")
	if err != nil || !reflect.DeepEqual(euHosts, []string{"eu-h1"}) {
		t.Errorf("eu shard HostsWith(nr) = %v, %v; want [eu-h1]", euHosts, err)
	}
	usHosts, err := s.Shard("us").HostsWith("nr")
	if err != nil || !reflect.DeepEqual(usHosts, []string{"us-h1", "us-h2"}) {
		t.Errorf("us shard HostsWith(nr) = %v, %v; want [us-h1 us-h2]", usHosts, err)
	}
	if _, err := s.Shard("ap").HostsWith("nr"); err == nil {
		t.Error("ap shard should hold no nr replicas")
	}
	// RegionsWith names exactly the shards worth consulting.
	if got, err := s.RegionsWith("nr"); err != nil || !reflect.DeepEqual(got, []string{"eu", "us"}) {
		t.Errorf("RegionsWith(nr) = %v, %v; want [eu us]", got, err)
	}
	if got, err := s.RegionsWith("est"); err != nil || !reflect.DeepEqual(got, []string{"ap"}) {
		t.Errorf("RegionsWith(est) = %v, %v; want [ap]", got, err)
	}
	// The merged views match a flat catalog's answers.
	hosts, err := s.HostsWith("nr")
	if err != nil || !reflect.DeepEqual(hosts, []string{"eu-h1", "us-h1", "us-h2"}) {
		t.Errorf("HostsWith(nr) = %v, %v", hosts, err)
	}
	locs, err := s.Locations("run-1")
	if err != nil || len(locs) != 2 || locs[0].Host != "ap-h1" || locs[1].Host != "eu-h2" {
		t.Errorf("Locations(run-1) = %v, %v", locs, err)
	}
	if f, err := s.Logical("est"); err != nil || !reflect.DeepEqual(f.Attributes, map[string]string{"type": "bio"}) {
		t.Errorf("Logical(est) = %+v, %v; want type=bio", f, err)
	}
	if got, want := s.LogicalNames(), []string{"est", "nr", "run-1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("LogicalNames() = %v, want %v", got, want)
	}
}

func TestShardedErrorsAndBookkeeping(t *testing.T) {
	s := newShardedFixture(t)
	if err := s.Register("nope", Location{Host: "eu-h1", Path: "/x"}); !errors.Is(err, ErrUnknownLogical) {
		t.Errorf("Register unknown logical: %v, want ErrUnknownLogical", err)
	}
	if err := s.Register("nr", Location{Host: "eu-h1", Path: "/data/nr"}); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate Register: %v, want ErrDuplicate", err)
	}
	if err := s.Unregister("nr", "ap-h9", "/x"); !errors.Is(err, ErrUnknownReplica) {
		t.Errorf("Unregister unknown replica: %v, want ErrUnknownReplica", err)
	}
	// Unregistering the last replica in a region drops it from RegionsWith.
	if err := s.Unregister("nr", "eu-h1", "/data/nr"); err != nil {
		t.Fatal(err)
	}
	if got, err := s.RegionsWith("nr"); err != nil || !reflect.DeepEqual(got, []string{"us"}) {
		t.Errorf("RegionsWith(nr) after eu unregister = %v, %v; want [us]", got, err)
	}
	if _, err := s.RegionsWith("nope"); !errors.Is(err, ErrUnknownLogical) {
		t.Errorf("RegionsWith unknown logical: %v, want ErrUnknownLogical", err)
	}
}

// TestShardedConcurrency exercises registration and lookup from many
// goroutines; run under -race this pins the store's locking.
func TestShardedConcurrency(t *testing.T) {
	s := NewSharded(regionByPrefix)
	const names = 64
	for i := 0; i < names; i++ {
		if err := s.CreateLogical(LogicalFile{
			Name: fmt.Sprintf("f%02d", i), SizeBytes: 1,
			Attributes: map[string]string{"bucket": fmt.Sprintf("b%d", i%4)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	regions := []string{"eu", "us", "ap", "sa"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < names; i++ {
				name := fmt.Sprintf("f%02d", i)
				host := fmt.Sprintf("%s-h%d", regions[(i+w)%len(regions)], w)
				if err := s.Register(name, Location{Host: host, Path: "/d/" + name}); err != nil && !errors.Is(err, ErrDuplicate) {
					t.Errorf("Register: %v", err)
				}
				if f, err := s.Logical(name); err != nil || f.Attributes["bucket"] != fmt.Sprintf("b%d", i%4) {
					t.Errorf("Logical(%s) = %+v, %v", name, f, err)
				}
				if _, err := s.RegionsWith(name); err != nil && !errors.Is(err, ErrNoReplicas) {
					t.Errorf("RegionsWith: %v", err)
				}
				s.HostsWith(name)
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < names; i++ {
		name := fmt.Sprintf("f%02d", i)
		hosts, err := s.HostsWith(name)
		if err != nil || len(hosts) != 8 {
			t.Errorf("%s: hosts %v err %v, want 8 hosts", name, hosts, err)
		}
		for _, r := range regions {
			locs, _ := s.Shard(r).Locations(name)
			for _, l := range locs {
				if regionByPrefix(l.Host) != r {
					t.Errorf("region %s shard lists %s", r, l)
				}
			}
		}
	}
}

// TestShardedNoStaleMetadata is the regression test for the mirrored
// shards: a region's copy of a file's metadata outlived the region's last
// replica. A shard now reads the one store's record.
func TestShardedNoStaleMetadata(t *testing.T) {
	s := NewSharded(regionByPrefix)
	if err := s.CreateLogical(LogicalFile{Name: "f", SizeBytes: 1}); err != nil {
		t.Fatal(err)
	}
	for _, host := range []string{"a-h1", "b-h1"} {
		if err := s.Register("f", Location{Host: host, Path: "/f"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Unregister("f", "a-h1", "/f"); err != nil {
		t.Fatal(err)
	}
	for _, region := range []string{"a", "c"} {
		if f, err := s.Shard(region).Logical("f"); err != nil || f.SizeBytes != 1 {
			t.Errorf("shard %s knows f as %+v, %v; want the catalog's record", region, f, err)
		}
		if _, err := s.Shard(region).Locations("f"); !errors.Is(err, ErrNoReplicas) {
			t.Errorf("shard %s lists f: %v, want ErrNoReplicas", region, err)
		}
	}
}

// TestCatalogWriteAllocs pins the write path and the fan-out query of a
// warm catalog: re-registering and unregistering a known replica moves
// entries inside the file's slice, and RegionsWith allocates its answer.
func TestCatalogWriteAllocs(t *testing.T) {
	s := newShardedFixture(t)
	loc := Location{Host: "ap-h1", Path: "/data/nr"}
	churn := func() {
		if err := s.Register("nr", loc); err != nil {
			t.Fatal(err)
		}
		if err := s.Unregister("nr", loc.Host, loc.Path); err != nil {
			t.Fatal(err)
		}
	}
	churn() // intern the host, grow the slice
	if got := testing.AllocsPerRun(100, churn); got != 0 {
		t.Errorf("Register+Unregister of a known replica: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { s.RegionsWith("nr") }); got > 1 {
		t.Errorf("RegionsWith: %v allocs, want at most 1 (the slice it returns)", got)
	}
}
