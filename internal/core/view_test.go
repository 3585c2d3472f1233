package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/gridstate"
	"github.com/hpclab/datagrid/internal/replica"
)

// TestViewRankMatchesServerRank: a pinned view must rank exactly as
// SelectionServer.Rank does at the same instant.
func TestViewRankMatchesServerRank(t *testing.T) {
	p := buildPipeline(t)
	for host, load := range map[string]float64{"hit0": 0.5, "lz02": 0.3} {
		h, _ := p.tb.Host(host)
		if err := h.SetBaseCPULoad(load); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.eng.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	live, err := p.sel.Rank("file-a", p.eng.Now())
	if err != nil {
		t.Fatal(err)
	}
	view := p.sel.PinView(p.eng.Now())
	batch, err := view.Rank("file-a")
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffCandidates(batch, live); d != "" {
		t.Fatalf("view and live diverged: %s", d)
	}
}

func TestPinViewMemoizesPerEpoch(t *testing.T) {
	p := buildPipeline(t)
	if err := p.eng.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	v1 := p.sel.PinView(p.eng.Now())
	v2 := p.sel.PinView(p.eng.Now())
	if v1 != v2 {
		t.Fatal("same epoch must return the same view")
	}
	if err := p.eng.RunUntil(time.Minute + 30*time.Second); err != nil {
		t.Fatal(err)
	}
	v3 := p.sel.PinView(p.eng.Now())
	if v3 == v1 || v3.Epoch() <= v1.Epoch() {
		t.Fatalf("after monitors moved, epoch %d must exceed %d", v3.Epoch(), v1.Epoch())
	}
}

func TestViewSelectBestMatchesServer(t *testing.T) {
	p := buildPipeline(t)
	if err := p.eng.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	live, err := p.sel.SelectBest("file-a", p.eng.Now())
	if err != nil {
		t.Fatal(err)
	}
	view := p.sel.PinView(p.eng.Now())
	batch, err := view.SelectBest("file-a")
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffCandidates([]Candidate{batch}, []Candidate{live}); d != "" {
		t.Fatalf("view and live chose differently: %s", d)
	}
}

// TestRankSharesViewReports: a candidate's Report is the pinned
// snapshot's own record of its host. Two ranks under one view share each
// host's report, and a republished snapshot holds new records, leaving
// the reports older candidates hold as they were.
func TestRankSharesViewReports(t *testing.T) {
	p := buildPipeline(t)
	if err := p.eng.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	view := p.sel.PinView(p.eng.Now())
	first, err := view.Rank("file-a")
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.sel.Rank("file-a", p.eng.Now())
	if err != nil {
		t.Fatal(err)
	}
	kept := make([]gridstate.HostPerf, len(first))
	for i := range first {
		if first[i].Report != second[i].Report {
			t.Fatalf("candidate %d: two ranks under one view hold two reports of %s", i, first[i].Location.Host)
		}
		j, ok := view.snap.Index(first[i].Location.Host)
		if !ok {
			t.Fatalf("candidate %d: %s is not in the pinned snapshot", i, first[i].Location.Host)
		}
		if r, err := view.snap.Record(j); err != nil || r != first[i].Report {
			t.Fatalf("candidate %d: Report is not the snapshot's record of %s (%v)", i, first[i].Location.Host, err)
		}
		kept[i] = *first[i].Report
	}
	if err := p.eng.RunUntil(4 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if p.sel.PinView(p.eng.Now()) == view {
		t.Fatal("the clock moved but the view did not")
	}
	later, err := p.sel.Rank("file-a", p.eng.Now())
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if *first[i].Report != kept[i] {
			t.Fatalf("candidate %d's report changed under a republish:\n was %+v\n now %+v", i, kept[i], *first[i].Report)
		}
		if later[i].Report.At == kept[i].At {
			t.Fatalf("candidate %d: the republished rank reads the old instant %v", i, kept[i].At)
		}
	}
}

// TestRepinAllocatesOnlyTheView: re-pinning after a republish allocates
// the view and nothing per tracked host, since a view reads each record
// where the snapshot keeps it. The republish's own allocations are
// measured apart and subtracted.
func TestRepinAllocatesOnlyTheView(t *testing.T) {
	hosts := make([]string, 100)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("us-h%d", i)
	}
	pub, err := gridstate.NewPublisher("client.us", hosts, hierBuilder{local: "client.us"})
	if err != nil {
		t.Fatal(err)
	}
	cat := replica.NewCatalog()
	if err := cat.CreateLogical(replica.LogicalFile{Name: "f", SizeBytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	for _, h := range hosts[:3] {
		if err := cat.Register("f", replica.Location{Host: h, Path: "/d/f"}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewSelectionServer(cat, pub, PaperWeights, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	srv.PinView(now) // the first pin builds the id table
	publish := testing.AllocsPerRun(100, func() { now += time.Second; pub.Snapshot(now) })
	repin := testing.AllocsPerRun(100, func() { now += time.Second; srv.PinView(now) })
	if got := repin - publish; got != 1 {
		t.Errorf("a re-pin allocates %v beside the republish's %v, want 1 (the view)", got, publish)
	}
}

// TestPinnedViewRanksManyLogicals: "pin once, rank many" is PinView plus a
// loop — every file of a burst is judged on the same snapshot instant.
func TestPinnedViewRanksManyLogicals(t *testing.T) {
	p := buildPipeline(t)
	// Register extra logical files with different replica subsets.
	logicals := []string{"file-a"}
	subsets := map[string][]string{
		"file-b": {"alpha4", "hit0"},
		"file-c": {"lz02"},
		"file-d": {"hit0", "lz02"},
	}
	for name, hosts := range subsets {
		if err := p.catalog.CreateLogical(replica.LogicalFile{Name: name, SizeBytes: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		for _, h := range hosts {
			if err := p.catalog.Register(name, replica.Location{Host: h, Path: "/data/" + name}); err != nil {
				t.Fatal(err)
			}
		}
		logicals = append(logicals, name)
	}
	if err := p.eng.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	view := p.sel.PinView(p.eng.Now())
	var at time.Duration
	for i, lg := range logicals {
		cands, err := view.Rank(lg)
		if err != nil {
			t.Fatalf("%s: %v", lg, err)
		}
		want := 3
		if hosts, ok := subsets[lg]; ok {
			want = len(hosts)
		}
		if len(cands) != want {
			t.Fatalf("%s ranked %d candidates, want %d", lg, len(cands), want)
		}
		if i == 0 {
			at = cands[0].Report.At
		}
		for _, c := range cands {
			if c.Report.At != at {
				t.Fatalf("mixed snapshot instants under one pinned view: %v vs %v", c.Report.At, at)
			}
		}
		// The view's result equals the individually ranked one.
		live, err := p.sel.Rank(lg, p.eng.Now())
		if err != nil {
			t.Fatal(err)
		}
		if d := DiffCandidates(cands, live); d != "" {
			t.Fatalf("%s diverged: %s", lg, d)
		}
	}
}

// TestPinnedViewFailsPerLogical: files ranked against one pinned view
// fail independently.
func TestPinnedViewFailsPerLogical(t *testing.T) {
	p := buildPipeline(t)
	// file-ghost has one replica on lz04, which the deployment does not
	// monitor; file-nope does not exist at all.
	if err := p.catalog.CreateLogical(replica.LogicalFile{Name: "file-ghost", SizeBytes: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.catalog.Register("file-ghost", replica.Location{Host: "lz04", Path: "/x"}); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	view := p.sel.PinView(p.eng.Now())
	if best, err := view.SelectBest("file-a"); err != nil || best.Location.Host == "" {
		t.Fatalf("file-a should select: %+v, %v", best, err)
	}
	if _, err := view.SelectBest("file-ghost"); !errors.Is(err, ErrNoUsableReplica) {
		t.Fatalf("file-ghost err = %v, want ErrNoUsableReplica", err)
	}
	if _, err := view.SelectBest("file-nope"); !errors.Is(err, replica.ErrUnknownLogical) {
		t.Fatalf("file-nope err = %v, want ErrUnknownLogical", err)
	}
}

func TestViewConcurrentRank(t *testing.T) {
	// The lock-free contract: one pinned view may serve many selector
	// goroutines at once. Run under -race.
	p := buildPipeline(t)
	if err := p.eng.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	view := p.sel.PinView(p.eng.Now())
	want, err := view.Rank("file-a")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, err := view.Rank("file-a")
				if err != nil {
					t.Errorf("Rank: %v", err)
					return
				}
				if d := DiffCandidates(got, want); d != "" {
					t.Errorf("concurrent rank diverged: %s", d)
					return
				}
				if _, err := view.SelectBest("file-a"); err != nil {
					t.Errorf("SelectBest: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRankScoresHostsInternedAfterPin: a replica registered, after the
// view was pinned, on a host the catalog had never seen is past the end of
// the view's id table. Without a re-pin, every tier must still score it
// when the snapshot tracks the host, and skip it when it does not.
func TestRankScoresHostsInternedAfterPin(t *testing.T) {
	perf := func(bw float64) oracleHost {
		return oracleHost{tracked: true, perf: gridstate.HostPerf{BandwidthPercent: bw, CPUIdlePercent: 50, IOIdlePercent: 50}}
	}
	// eu-late is tracked and scores best; eu-stray is tracked by nobody.
	hosts := oracleBuilder{"eu-h0": perf(40), "eu-h1": perf(60), "eu-late": perf(90)}
	tracked := []string{"eu-h0", "eu-h1", "eu-late"}
	pub := func() *gridstate.Publisher {
		p, err := gridstate.NewPublisher("client.eu", tracked, hosts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	flatCat, sharded := replica.NewCatalog(), replica.NewSharded(hierRegionOf)
	cats := []*replica.Catalog{flatCat, sharded.Catalog}
	register := func(hosts ...string) {
		t.Helper()
		for _, c := range cats {
			for _, h := range hosts {
				if err := c.Register("f", replica.Location{Host: h, Path: "/d/f"}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, c := range cats {
		if err := c.CreateLogical(replica.LogicalFile{Name: "f", SizeBytes: 1}); err != nil {
			t.Fatal(err)
		}
	}
	register("eu-h0", "eu-h1")
	flat, err := NewSelectionServer(flatCat, pub(), PaperWeights, nil)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := NewHierarchicalServer(sharded, PaperWeights, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := hier.AddRegion("eu", pub()); err != nil {
		t.Fatal(err)
	}
	view := flat.PinView(0)
	if _, err := hier.Rank("f", 0); err != nil {
		t.Fatal(err)
	}
	region := hier.regions[slices.Index(hier.names, "eu")]
	regionView := region.view

	register("eu-late", "eu-stray")

	score := func(h string) float64 {
		perf := hosts[h].perf
		return Score(&perf, PaperWeights)
	}
	cands, err := view.Rank("f")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range cands {
		got = append(got, c.Location.Host)
		if c.Score != score(c.Location.Host) {
			t.Errorf("flat: %s scored %v, want %v", c.Location.Host, c.Score, score(c.Location.Host))
		}
	}
	if want := []string{"eu-late", "eu-h1", "eu-h0"}; !slices.Equal(got, want) {
		t.Errorf("flat Rank = %v, want %v", got, want)
	}
	merged, err := hier.Rank("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 1 || merged[0].Location.Host != "eu-late" || merged[0].Score != score("eu-late") {
		t.Errorf("hierarchical Rank = %+v, want eu-late alone at %v", merged, score("eu-late"))
	}
	ranked, err := flat.RankHosts("f", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"eu-late", "eu-h1", "eu-h0", "eu-stray"}; !slices.Equal(ranked, want) {
		t.Errorf("RankHosts = %v, want %v (the untracked host last, unscored)", ranked, want)
	}
	if flat.PinView(0) != view || region.view != regionView {
		t.Fatal("the test re-pinned: the late hosts never left the fallback")
	}
	// The next pin extends the table: the late hosts leave the fallback.
	repinned := flat.PinView(time.Second)
	locs, err := flatCat.AppendTagged(nil, "f")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range locs {
		if int(l.HostID) >= len(repinned.slots) {
			t.Errorf("%s (id %d) is past the re-pinned table's end %d", l.Host, l.HostID, len(repinned.slots))
		}
	}
}
