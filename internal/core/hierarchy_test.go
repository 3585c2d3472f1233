package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/hpclab/datagrid/internal/gridstate"
	"github.com/hpclab/datagrid/internal/info"
	"github.com/hpclab/datagrid/internal/replica"
)

func hierRegionOf(host string) string {
	if i := strings.IndexByte(host, '-'); i > 0 {
		return host[:i]
	}
	return host
}

// hierBuilder derives deterministic per-host perf from the host name, so
// the flat reference below can recompute the same scores independently.
type hierBuilder struct{ local string }

func hostSig(host string) float64 {
	var s float64
	for _, c := range host {
		s += float64(c)
	}
	return s
}

func (b hierBuilder) BuildHostPerf(host string, now time.Duration) (gridstate.HostPerf, error) {
	if strings.HasSuffix(host, "blind") {
		return gridstate.HostPerf{}, fmt.Errorf("%w: %s unmonitored", info.ErrNoData, host)
	}
	sig := hostSig(host)
	return gridstate.HostPerf{
		Host: host, Local: b.local,
		BandwidthPercent: 20 + float64(int(sig)%80),
		CPUIdlePercent:   float64(int(sig*3) % 100),
		IOIdlePercent:    float64(int(sig*7) % 100),
		At:               now,
	}, nil
}

// hierWorld builds a 3-region sharded world with per-region publishers.
func hierWorld(t *testing.T) (*replica.ShardedCatalog, *HierarchicalServer, []string) {
	t.Helper()
	cat := replica.NewSharded(hierRegionOf)
	regions := []string{"ap", "eu", "us"}
	hostsByRegion := map[string][]string{}
	for _, r := range regions {
		for i := 0; i < 4; i++ {
			hostsByRegion[r] = append(hostsByRegion[r], fmt.Sprintf("%s-h%d", r, i))
		}
		hostsByRegion[r] = append(hostsByRegion[r], r+"-blind")
	}
	files := []struct {
		name  string
		hosts []string
	}{
		{"all-regions", []string{"ap-h0", "ap-h2", "eu-h1", "eu-h3", "us-h0", "us-h1"}},
		{"two-regions", []string{"eu-h0", "eu-h2", "us-h3"}},
		{"one-region", []string{"ap-h1", "ap-h3"}},
		{"blind-region", []string{"ap-blind", "eu-h1"}},
		{"all-blind", []string{"ap-blind", "eu-blind"}},
	}
	var names []string
	for _, f := range files {
		if err := cat.CreateLogical(replica.LogicalFile{Name: f.name, SizeBytes: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		for _, h := range f.hosts {
			if err := cat.Register(f.name, replica.Location{Host: h, Path: "/d/" + f.name}); err != nil {
				t.Fatal(err)
			}
		}
		names = append(names, f.name)
	}
	h, err := NewHierarchicalServer(cat, PaperWeights, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regions {
		pub, err := gridstate.NewPublisher("client."+r, hostsByRegion[r], hierBuilder{local: "client." + r})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.AddRegion(r, pub); err != nil {
			t.Fatal(err)
		}
	}
	return cat, h, names
}

// flatBest recomputes the globally best candidate the flat path would
// pick: score every monitored location with the same builder math, order
// by (score desc, location asc).
func flatBest(t *testing.T, cat *replica.ShardedCatalog, logical string) (replica.Location, float64, bool) {
	t.Helper()
	locs, err := cat.Locations(logical)
	if err != nil {
		t.Fatal(err)
	}
	type scored struct {
		loc   replica.Location
		score float64
	}
	var all []scored
	for _, loc := range locs {
		if strings.HasSuffix(loc.Host, "blind") {
			continue
		}
		perf, err := hierBuilder{local: "client." + hierRegionOf(loc.Host)}.BuildHostPerf(loc.Host, 0)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, scored{loc: loc, score: Score(perf, PaperWeights)})
	}
	if len(all) == 0 {
		return replica.Location{}, 0, false
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].loc.String() < all[j].loc.String()
	})
	return all[0].loc, all[0].score, true
}

// TestHierarchicalEqualsFlat is the correctness anchor: for the
// cost-model selector, merging per-region bests picks exactly the
// candidate a flat scan of every replica would pick.
func TestHierarchicalEqualsFlat(t *testing.T) {
	cat, h, names := hierWorld(t)
	for _, name := range names {
		best, err := h.SelectBest(name, 0)
		wantLoc, wantScore, ok := flatBest(t, cat, name)
		if !ok {
			if !errors.Is(err, ErrNoUsableReplica) {
				t.Errorf("%s: err = %v, want ErrNoUsableReplica", name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if best.Location != wantLoc || best.Score != wantScore {
			t.Errorf("%s: hierarchical chose %v (%.2f), flat reference %v (%.2f)",
				name, best.Location, best.Score, wantLoc, wantScore)
		}
	}
}

// TestHierarchicalScanBounds pins the scale property: a selection only
// consults the regions holding the file, and no single rank ever scans
// more hosts than the largest shard's replica list.
func TestHierarchicalScanBounds(t *testing.T) {
	cat, h, _ := hierWorld(t)
	if _, err := h.SelectBest("one-region", 0); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Selections != 1 || st.RegionsConsulted != 1 {
		t.Errorf("one-region: consulted %d regions in %d selections, want 1 in 1", st.RegionsConsulted, st.Selections)
	}
	if st.HostsScanned != 2 {
		t.Errorf("one-region: scanned %d hosts, want its 2 replicas only", st.HostsScanned)
	}
	if _, err := h.SelectBest("two-regions", 0); err != nil {
		t.Fatal(err)
	}
	st = h.Stats()
	if st.RegionsConsulted != 3 {
		t.Errorf("cumulative regions consulted %d, want 3 (1+2)", st.RegionsConsulted)
	}
	// MaxSingleRank is bounded by the largest per-region replica list of
	// any ranked file (2 here), far below the world's host count.
	if st.MaxSingleRank > 2 {
		t.Errorf("MaxSingleRank = %d, want <= 2", st.MaxSingleRank)
	}
	// Sanity: the world is 15 hosts; nothing ever scanned it.
	if got, _ := cat.Locations("all-regions"); st.MaxSingleRank >= len(got) {
		t.Errorf("a single rank scanned %d >= the file's full location list %d", st.MaxSingleRank, len(got))
	}
}

func TestHierarchicalErrors(t *testing.T) {
	cat, h, _ := hierWorld(t)
	if _, err := h.SelectBest("missing", 0); !errors.Is(err, replica.ErrUnknownLogical) {
		t.Errorf("unknown logical: %v", err)
	}
	if _, err := h.SelectBest("all-blind", 0); !errors.Is(err, ErrNoUsableReplica) {
		t.Errorf("all-blind: %v, want ErrNoUsableReplica", err)
	}
	// blind-region: ap's only replica is unmonitored, eu's works — the
	// merge must skip ap and still answer.
	best, err := h.SelectBest("blind-region", 0)
	if err != nil || best.Location.Host != "eu-h1" {
		t.Errorf("blind-region: %v, %v; want eu-h1", best.Location, err)
	}
	// A replica in a region never registered with AddRegion is an error.
	if err := cat.CreateLogical(replica.LogicalFile{Name: "stray", SizeBytes: 1}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("stray", replica.Location{Host: "sa-h0", Path: "/d/stray"}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.SelectBest("stray", 0); err == nil || !strings.Contains(err.Error(), "unregistered region") {
		t.Errorf("stray region: %v, want unregistered-region error", err)
	}
	// AddRegion validation.
	if err := h.AddRegion("ap", nil); err == nil {
		t.Error("duplicate AddRegion should fail")
	}
	if err := h.AddRegion("nowhere", nil); err == nil {
		t.Error("AddRegion without a snapshot source should fail")
	}
}

// TestFirstReplicaAfterAddRegion: a region may be registered while it
// holds no replica; the first one to arrive (by replication, say) is
// ranked like any other.
func TestFirstReplicaAfterAddRegion(t *testing.T) {
	cat, h, _ := hierWorld(t)
	pub, err := gridstate.NewPublisher("client.sa", []string{"sa-h0"}, hierBuilder{local: "client.sa"})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddRegion("", pub); err == nil {
		t.Error("AddRegion without a region name should fail")
	}
	if err := h.AddRegion("sa", pub); err != nil {
		t.Fatalf("AddRegion on a region without replicas: %v", err)
	}
	before, err := h.Rank("one-region", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("one-region", replica.Location{Host: "sa-h0", Path: "/d/one-region"}); err != nil {
		t.Fatal(err)
	}
	after, err := h.Rank("one-region", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+1 {
		t.Fatalf("merged %d regions after sa's first replica, want %d", len(after), len(before)+1)
	}
	wantLoc, wantScore, _ := flatBest(t, cat, "one-region")
	if after[0].Location != wantLoc || after[0].Score != wantScore {
		t.Errorf("best = %v (%.2f), flat reference %v (%.2f)", after[0].Location, after[0].Score, wantLoc, wantScore)
	}
}

// TestRankAllocs pins a warm Rank on both tiers, at any region count, to
// one allocation: the slice it returns, len × Sizeof(Candidate) bytes
// rounded to the allocator's size class. The region tier walks its
// locations through a stack buffer and keeps the running best, so nothing
// else is built. (One ranker with a list and a sort per region: 5 flat and
// 8, 11 and 18 for one, two and three regions.) A candidate is a 40-byte
// Location, the report pointer and the score, 56 bytes; with the report
// held by value it was 136.
func TestRankAllocs(t *testing.T) {
	if size := unsafe.Sizeof(Candidate{}); size > 56 {
		t.Errorf("Candidate is %d bytes, want at most 56", size)
	}
	p := buildPipeline(t)
	if err := p.eng.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	now := p.eng.Now()
	_, h, _ := hierWorld(t)
	for _, tc := range []struct {
		name string
		max  float64
		rank func() ([]Candidate, error)
	}{
		{"flat", 1, func() ([]Candidate, error) { return p.sel.Rank("file-a", now) }},
		{"one-region", 1, func() ([]Candidate, error) { return h.Rank("one-region", 0) }},
		{"two-regions", 1, func() ([]Candidate, error) { return h.Rank("two-regions", 0) }},
		{"all-regions", 1, func() ([]Candidate, error) { return h.Rank("all-regions", 0) }},
	} {
		cands, err := tc.rank() // pin the snapshot and view
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := testing.AllocsPerRun(100, func() { tc.rank() }); got > tc.max {
			t.Errorf("%s: %v allocs per Rank, want at most %v", tc.name, got, tc.max)
		}
		n := uintptr(len(cands)) * unsafe.Sizeof(Candidate{})
		want := bytesPerRun(100, func() { byteSink = make([]byte, n) })
		if got := bytesPerRun(100, func() { tc.rank() }); got != want {
			t.Errorf("%s: %d bytes per Rank, want %d (one slice of %d candidates)", tc.name, got, want, len(cands))
		}
	}
}

// byteSink keeps bytesPerRun's reference allocation on the heap.
var byteSink []byte

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs after a warm-up call. It counts
// whole size classes, as the allocator hands them out.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
