package experiments

import (
	"reflect"
	"testing"

	"github.com/hpclab/datagrid/internal/topo"
)

// tinyScalePoint keeps the unit test fast; the real sweep sizes only run
// under -scale / bench-scale.
var tinyScalePoint = scalePoint{
	label:    "tiny",
	spec:     topo.Spec{Regions: 3, SitesPerRegion: 2, ClustersPerSite: 1, HostsPerCluster: 3},
	files:    200,
	replicas: 2,
	queries:  40,
	flows:    6,
}

func TestPlanetScalePoint(t *testing.T) {
	r, err := runScalePoint(7, tinyScalePoint)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sites != 6 || r.Hosts != 18 || r.Regions != 3 {
		t.Errorf("world shape = %d sites / %d hosts / %d regions, want 6/18/3", r.Sites, r.Hosts, r.Regions)
	}
	if r.TreeBuilds == 0 || r.PathBuilds < r.TreeBuilds {
		t.Errorf("route stats: %d tree builds, %d path builds", r.TreeBuilds, r.PathBuilds)
	}
	// The hierarchy's scan bound: no single region rank may exceed the
	// replica count.
	if r.MaxSingleRank > tinyScalePoint.replicas {
		t.Errorf("MaxSingleRank = %d, want <= %d", r.MaxSingleRank, tinyScalePoint.replicas)
	}
	if r.RegionsConsulted == 0 || r.HostsScanned == 0 {
		t.Error("hierarchy stats empty; selection did not run")
	}
	if r.MeanTransferSec <= 0 {
		t.Errorf("MeanTransferSec = %v, want > 0 (flows must complete)", r.MeanTransferSec)
	}
}

// TestPlanetScalePointDeterministic pins the -scale determinism gate at
// unit scale: the same (seed, point) must reproduce every count and
// virtual time exactly.
func TestPlanetScalePointDeterministic(t *testing.T) {
	a, err := runScalePoint(11, tinyScalePoint)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runScalePoint(11, tinyScalePoint)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c, err := runScalePoint(12, tinyScalePoint)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical results; seed is not flowing")
	}
}

// TestPlanetScalePointPinned pins tinyScalePoint at seed 7 to a literal
// captured at commit 323d685: any change to draw order, event order or
// float arithmetic in the world, the engine or the allocator shows up
// here. The three water-fill work counters were re-based when netsim's
// cap-bound path landed (88 rounds scanning 159 flows, at most 4 in one
// round, became none: all 45 allocations of this point are cap-bound);
// TreeBuilds went 8 → 3 when netsim began routing on the core: the sweeps
// run from the three region hubs only. Every other field is the original
// capture.
func TestPlanetScalePointPinned(t *testing.T) {
	want := PlanetScaleResult{
		Label: "tiny", Sites: 6, Hosts: 18, Regions: 3, Files: 200, Queries: 40, Flows: 6,
		TreeBuilds: 3, PathBuilds: 24,
		RegionsConsulted: 92, HostsScanned: 92, MaxSingleRank: 1,
		MeanTransferSec: 60.759150351333325,
		ReallocEvents:   48, ReallocRounds: 0, FlowsScanned: 0,
		ComponentsDirtied: 45, MaxComponentFlows: 4, MaxRoundFlows: 0,
	}
	got, err := runScalePoint(7, tinyScalePoint)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("pinned result moved:\n got %+v\nwant %+v", got, want)
	}
}
