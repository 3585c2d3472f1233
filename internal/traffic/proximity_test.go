package traffic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/replica"
	"github.com/hpclab/datagrid/internal/topo"
)

func TestNearestFirst(t *testing.T) {
	mk := func(host string, score float64) core.Candidate {
		return core.Candidate{Location: replica.Location{Host: host, Path: "/grid/f"}, Score: score}
	}
	// Score order (best first) as the hierarchy would return it: a far
	// high-scoring replica ahead of closer, lower-scored ones.
	cands := []core.Candidate{
		mk("r09s01c0h00", 90), // other region
		mk("r02s04c0h01", 80), // same region, other site
		mk("r09s02c0h00", 70), // other region
		mk("r02s00c0h03", 60), // same site
		mk("r02s00c0h01", 50), // the requester itself
	}
	got := nearestFirst(cands, "r02s00c0h01")
	want := []string{
		"r02s00c0h01", // tier 0: local
		"r02s00c0h03", // tier 1: same site
		"r02s04c0h01", // tier 2: same region
		"r09s01c0h00", // tier 3: score order preserved
		"r09s02c0h00",
	}
	for i, w := range want {
		if got[i].Location.Host != w {
			t.Fatalf("position %d: got %s, want %s", i, got[i].Location.Host, w)
		}
	}
	// Foreign requester names tier everything equally: order unchanged.
	cands = []core.Candidate{mk("r09s01c0h00", 90), mk("r02s04c0h01", 80)}
	got = nearestFirst(cands, "thu-node1")
	if got[0].Location.Host != "r09s01c0h00" || got[1].Location.Host != "r02s04c0h01" {
		t.Error("foreign requester should preserve score order")
	}
}

// TestNearestFirstAllocs pins the request path's reorder at no allocation:
// sort.SliceStable's reflect-based swapper and escaping closures cost three
// per call.
func TestNearestFirstAllocs(t *testing.T) {
	cands := make([]core.Candidate, 4)
	hosts := []string{"r09s01c0h00", "r02s04c0h01", "r02s00c0h03", "r02s00c0h01"}
	avg := testing.AllocsPerRun(100, func() {
		for i, h := range hosts {
			cands[i] = core.Candidate{Location: replica.Location{Host: h, Path: "/grid/f"}, Score: float64(90 - i)}
		}
		nearestFirst(cands, "r02s00c0h01")
	})
	if avg != 0 {
		t.Fatalf("nearestFirst allocates %v objects per call, want 0", avg)
	}
}

// TestNearestFirstMatchesStableSort holds the reorder, each tier computed
// once, to a stable sort that derives both operands' tiers per comparison,
// over lists with repeated tiers, foreign names and lists longer than the
// tier buffer.
func TestNearestFirstMatchesStableSort(t *testing.T) {
	hosts := []string{"r02s00c0h01", "r02s00c0h03", "r02s04c0h01", "r09s01c0h00", "r09s02c0h00", "thu-node1", "r02s04c1h00"}
	tier := func(h, requester string) int {
		switch {
		case h == requester:
			return 0
		case topo.SiteOfHost(h) == topo.SiteOfHost(requester):
			return 1
		case topo.RegionOfHost(h) == topo.RegionOfHost(requester):
			return 2
		}
		return 3
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		requester := hosts[rng.Intn(len(hosts))]
		cands := make([]core.Candidate, rng.Intn(25))
		for i := range cands {
			cands[i] = core.Candidate{Location: replica.Location{Host: hosts[rng.Intn(len(hosts))], Path: fmt.Sprintf("/grid/f%d", i)}}
		}
		want := slices.Clone(cands)
		slices.SortStableFunc(want, func(a, b core.Candidate) int {
			return tier(a.Location.Host, requester) - tier(b.Location.Host, requester)
		})
		got := nearestFirst(cands, requester)
		for i := range want {
			if got[i].Location != want[i].Location {
				t.Fatalf("trial %d, requester %s: position %d is %v, want %v", trial, requester, i, got[i].Location, want[i].Location)
			}
		}
	}
}
