package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/gridstate"
	"github.com/hpclab/datagrid/internal/info"
	"github.com/hpclab/datagrid/internal/replica"
)

// The ranker oracle: seeded random catalogs and snapshots, ranked by the
// one production ranker (SnapshotView.Rank flat, HierarchicalServer.Rank
// over region shards) and by refRank below, which shares no code with it.

// oracleWeights and the integer factor values make every product and sum
// exact in binary, so the reference may compute scores independently and
// still compare them with ==, and distinct factor triples can tie.
var oracleWeights = Weights{Bandwidth: 0.5, CPU: 0.25, IO: 0.25}

var errOracleBoom = errors.New("oracle: monitor on fire")

// oracleHost is one host's fate in a generated world.
type oracleHost struct {
	tracked bool // false: the publisher does not cover it
	perf    gridstate.HostPerf
	err     error // ErrNoData-wrapping, errOracleBoom, or nil
}

type oracleBuilder map[string]oracleHost

func (b oracleBuilder) BuildHostPerf(host string, now time.Duration) (gridstate.HostPerf, error) {
	return b[host].perf, b[host].err
}

// refCand is the reference's notion of a candidate.
type refCand struct {
	loc   replica.Location
	score float64
}

// refRank is the reference scorer: what a rank over locs must return
// given each host's fate. hard reports a non-ErrNoData monitoring error
// on any scanned host; an empty result without hard is "no usable
// replica".
func refRank(hosts oracleBuilder, locs []replica.Location) (out []refCand, hard bool) {
	for _, loc := range locs {
		h := hosts[loc.Host]
		switch {
		case !h.tracked || errors.Is(h.err, info.ErrNoData):
			continue
		case h.err != nil:
			return nil, true
		}
		p := h.perf
		out = append(out, refCand{loc, p.BandwidthPercent*0.5 + p.CPUIdlePercent*0.25 + p.IOIdlePercent*0.25})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].loc.Host+":"+out[i].loc.Path < out[j].loc.Host+":"+out[j].loc.Path
	})
	return out, false
}

// oracleWorld is one generated grid: the same replicas in a flat catalog
// (one server over one publisher) and a sharded one (one server per
// region).
type oracleWorld struct {
	hosts    oracleBuilder
	logicals []string
	locs     map[string][]replica.Location
	flat     *SelectionServer
	hier     *HierarchicalServer
	ties     int // logical files whose top two reference scores tie
}

func newOracleWorld(t *testing.T, seed int64) *oracleWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := &oracleWorld{hosts: oracleBuilder{}, locs: map[string][]replica.Location{}}
	regions := []string{"ap", "eu", "sa", "us"}[:1+rng.Intn(4)]
	var all, allTracked []string
	tracked := map[string][]string{} // by region
	for _, r := range regions {
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			name := fmt.Sprintf("%s-h%d", r, i)
			h := oracleHost{tracked: true, perf: gridstate.HostPerf{
				Host: name, Local: "client",
				// Few distinct values: ties are the common case.
				BandwidthPercent: float64(10 * rng.Intn(4)),
				CPUIdlePercent:   float64(20 * rng.Intn(3)),
				IOIdlePercent:    float64(20 * rng.Intn(3)),
			}}
			switch k := rng.Intn(20); {
			case k == 0:
				h.err = errOracleBoom
			case k < 4:
				h.err = fmt.Errorf("%w: %s silent", info.ErrNoData, name)
			case k < 7:
				h.tracked = false
			}
			w.hosts[name] = h
			all = append(all, name)
			if h.tracked {
				tracked[r] = append(tracked[r], name)
				allTracked = append(allTracked, name)
			}
		}
	}
	flatCat := replica.NewCatalog()
	sharded := replica.NewSharded(hierRegionOf)
	for i, n := 0, 4+rng.Intn(12); i < n; i++ {
		f := replica.LogicalFile{Name: fmt.Sprintf("f%02d", i), SizeBytes: 1}
		if err := flatCat.CreateLogical(f); err != nil {
			t.Fatal(err)
		}
		if err := sharded.CreateLogical(f); err != nil {
			t.Fatal(err)
		}
		w.logicals = append(w.logicals, f.Name)
		for j, m := 0, 1+rng.Intn(6); j < m; j++ {
			// Two paths per host: the same host twice is a certain tie.
			loc := replica.Location{Host: all[rng.Intn(len(all))], Path: fmt.Sprintf("/p%d/%s", rng.Intn(2), f.Name)}
			if slices.Contains(w.locs[f.Name], loc) {
				continue
			}
			w.locs[f.Name] = append(w.locs[f.Name], loc)
			if err := flatCat.Register(f.Name, loc); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Register(f.Name, loc); err != nil {
				t.Fatal(err)
			}
		}
		if ref, _ := refRank(w.hosts, w.locs[f.Name]); len(ref) > 1 && ref[0].score == ref[1].score {
			w.ties++
		}
	}
	publisher := func(hosts []string) *gridstate.Publisher {
		pub, err := gridstate.NewPublisher("client", hosts, w.hosts)
		if err != nil {
			t.Fatal(err)
		}
		return pub
	}
	var err error
	if w.flat, err = NewSelectionServer(flatCat, publisher(allTracked), oracleWeights, nil); err != nil {
		t.Fatal(err)
	}
	if w.hier, err = NewHierarchicalServer(sharded, oracleWeights, nil); err != nil {
		t.Fatal(err)
	}
	for _, r := range regions {
		if err := w.hier.AddRegion(r, publisher(tracked[r])); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// diffRank compares one production answer with the reference's.
func diffRank(hosts oracleBuilder, got []Candidate, err error, want []refCand, hard bool) string {
	switch {
	case hard:
		if !errors.Is(err, errOracleBoom) {
			return fmt.Sprintf("err = %v, want the monitor fault", err)
		}
	case len(want) == 0:
		if !errors.Is(err, ErrNoUsableReplica) {
			return fmt.Sprintf("err = %v, want ErrNoUsableReplica", err)
		}
	case err != nil:
		return fmt.Sprintf("err = %v, want %d candidates", err, len(want))
	case len(got) != len(want):
		return fmt.Sprintf("%d candidates, want %d", len(got), len(want))
	}
	wantCands := make([]Candidate, len(want))
	for i, c := range want {
		perf := hosts[c.loc.Host].perf
		wantCands[i] = Candidate{Location: c.loc, Report: &perf, Score: c.score}
	}
	return DiffCandidates(got, wantCands)
}

type rankFn func(logical string) ([]Candidate, error)

// check ranks every logical file both ways and returns the divergences
// from the reference. The hierarchical reference is the flat one's first
// entry per region: per-region bests, merged best-first.
func (w *oracleWorld) check(flat, hier rankFn) []string {
	var bad []string
	for _, lg := range w.logicals {
		want, hard := refRank(w.hosts, w.locs[lg])
		got, err := flat(lg)
		if d := diffRank(w.hosts, got, err, want, hard); d != "" {
			bad = append(bad, "flat "+lg+": "+d)
		}
		var merged []refCand
		seen := map[string]bool{}
		for _, c := range want {
			if r := hierRegionOf(c.loc.Host); !seen[r] {
				seen[r] = true
				merged = append(merged, c)
			}
		}
		got, err = hier(lg)
		if d := diffRank(w.hosts, got, err, merged, hard); d != "" {
			bad = append(bad, "hier "+lg+": "+d)
		}
	}
	return bad
}

const oracleSeeds = 300

// TestRankOracle diffs the production ranker against the reference over
// seeded worlds with monitored, ErrNoData, hard-error and untracked
// hosts, and pins the hierarchy's scan accounting to the catalog's
// location counts.
func TestRankOracle(t *testing.T) {
	ties, hardFiles := 0, 0
	for seed := int64(1); seed <= oracleSeeds; seed++ {
		w := newOracleWorld(t, seed)
		view := w.flat.PinView(0)
		for _, d := range w.check(view.Rank, func(lg string) ([]Candidate, error) { return w.hier.Rank(lg, 0) }) {
			t.Errorf("seed %d: %s", seed, d)
		}
		ties += w.ties
		// Stats: every file was ranked once; a rank without a monitor
		// fault scans every location of every region holding the file.
		var want HierarchyStats
		exact := true
		for _, lg := range w.logicals {
			want.Selections++
			perRegion := map[string]int{}
			for _, loc := range w.locs[lg] {
				perRegion[hierRegionOf(loc.Host)]++
			}
			if _, hard := refRank(w.hosts, w.locs[lg]); hard {
				hardFiles++
				exact = false // the merge stops at the faulty region
				continue
			}
			want.RegionsConsulted += uint64(len(perRegion))
			for _, n := range perRegion {
				want.HostsScanned += uint64(n)
				want.MaxSingleRank = max(want.MaxSingleRank, n)
			}
		}
		if got := w.hier.Stats(); exact && got != want {
			t.Errorf("seed %d: stats %+v, want %+v", seed, got, want)
		}
	}
	if ties < oracleSeeds/10 || hardFiles == 0 {
		t.Fatalf("generator lost its edge cases: %d top-score ties, %d files behind a monitor fault", ties, hardFiles)
	}
}

// TestRankOracleCatchesTieBreakMutation is the oracle's own check: a
// ranker that breaks score ties toward the larger location must not pass.
func TestRankOracleCatchesTieBreakMutation(t *testing.T) {
	mutate := func(rank rankFn) rankFn {
		return func(lg string) ([]Candidate, error) {
			cands, err := rank(lg)
			slices.SortStableFunc(cands, func(a, b Candidate) int {
				if a.Score != b.Score {
					return cmp.Compare(b.Score, a.Score)
				}
				return strings.Compare(b.Location.String(), a.Location.String())
			})
			return cands, err
		}
	}
	flatCaught, hierCaught := 0, 0
	for seed := int64(1); seed <= oracleSeeds; seed++ {
		w := newOracleWorld(t, seed)
		hier := func(lg string) ([]Candidate, error) { return w.hier.Rank(lg, 0) }
		if len(w.check(mutate(w.flat.PinView(0).Rank), hier)) > 0 {
			flatCaught++
		}
		if len(w.check(w.flat.PinView(0).Rank, mutate(hier))) > 0 {
			hierCaught++
		}
	}
	if flatCaught == 0 || hierCaught == 0 {
		t.Fatalf("mutated tie-break passed the oracle (flat caught in %d worlds, hierarchical in %d)", flatCaught, hierCaught)
	}
}
