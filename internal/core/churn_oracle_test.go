package core_test

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/gridstate"
	"github.com/hpclab/datagrid/internal/info"
	"github.com/hpclab/datagrid/internal/replica"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/topo"
)

// oracleCases sizes the churn oracle below: the ops it applies and checks.
// CI runs it at ten times the default under the race detector
// (-oracle.cases=30000). A test-binary flag, not a program knob.
var oracleCases = flag.Int("oracle.cases", 3000, "ops the hierarchical churn oracle applies and checks")

// churnOps is how many ops one generated world takes before the oracle
// moves on to the next seed.
const churnOps = 1000

var errChurnFire = errors.New("churn oracle: monitor on fire")

// churnBuilder makes each host's outcome a pure function of (host, now):
// few distinct factor values, so hosts tie on score, and some ErrNoData
// and hard failures.
type churnBuilder struct{}

func (churnBuilder) BuildHostPerf(host string, now time.Duration) (gridstate.HostPerf, error) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s@%d", host, now)
	x := h.Sum64()
	switch x % 64 {
	case 0:
		return gridstate.HostPerf{}, fmt.Errorf("%w: %s", errChurnFire, host)
	case 1, 2, 3, 4, 5:
		return gridstate.HostPerf{}, fmt.Errorf("%w: %s silent", info.ErrNoData, host)
	}
	return gridstate.HostPerf{
		Host: host, Local: "hub", At: now,
		BandwidthPercent: float64(25 * ((x >> 8) % 3)),
		CPUIdlePercent:   float64(50 * ((x >> 16) % 2)),
		IOIdlePercent:    float64(50 * ((x >> 24) % 2)),
	}, nil
}

// refBestFirst orders candidates score descending, then by the location's
// string form.
func refBestFirst(a, b core.Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Location.String() < b.Location.String()
}

// refHierRank is the name-keyed hierarchical rank the dense-id one
// replaced: RegionsWith, then each region's shard read, each location
// looked up by name in the region's snapshot, a stable best-first sort per
// region and one over the merged bests. It keeps its own HierarchyStats.
func refHierRank(cat *replica.ShardedCatalog, pubs map[string]*gridstate.Publisher, logical string, now time.Duration, st *core.HierarchyStats) ([]core.Candidate, error) {
	regions, err := cat.RegionsWith(logical)
	if err != nil {
		return nil, err
	}
	st.Selections++
	var merged []core.Candidate
	for _, region := range regions {
		pub, ok := pubs[region]
		if !ok {
			return nil, fmt.Errorf("core: %q has replicas in unregistered region %q", logical, region)
		}
		st.RegionsConsulted++
		locs, err := cat.Shard(region).Locations(logical)
		if err != nil {
			return nil, err
		}
		st.HostsScanned += uint64(len(locs))
		st.MaxSingleRank = max(st.MaxSingleRank, len(locs))
		snap := pub.Snapshot(now)
		var cands []core.Candidate
		for _, loc := range locs {
			rep, err := snap.Lookup(loc.Host)
			if errors.Is(err, gridstate.ErrUntracked) || errors.Is(err, info.ErrNoData) {
				continue
			}
			if err != nil {
				return nil, err
			}
			cands = append(cands, core.Candidate{Location: loc, Report: &rep, Score: core.Score(rep, core.PaperWeights)})
		}
		if len(cands) == 0 {
			continue
		}
		sort.SliceStable(cands, func(i, j int) bool { return refBestFirst(cands[i], cands[j]) })
		merged = append(merged, cands[0])
	}
	if len(merged) == 0 {
		return nil, fmt.Errorf("%w: %q monitored in none of its %d regions", core.ErrNoUsableReplica, logical, len(regions))
	}
	sort.SliceStable(merged, func(i, j int) bool { return refBestFirst(merged[i], merged[j]) })
	return merged, nil
}

// churnTally counts the edge cases a sequence reached, so a generator
// change that stops reaching one fails loudly.
type churnTally struct {
	ranks, ties, lateHosts, foreign int
	errs                            map[string]int // by kind
}

// TestHierarchicalRankOracleUnderChurn diffs HierarchicalServer.Rank
// against refHierRank after every op of seeded random sequences of
// Register, Unregister, Rank and republish on a topo.NewWorld catalog:
// the candidate lists bit for bit, the error texts, and the
// HierarchyStats. One region joins only partway through; some replicas
// land in a region no server exists for; some hosts no region monitor
// tracks, and some region monitors track a foreign host; hosts are
// interned after the views that rank them were pinned.
func TestHierarchicalRankOracleUnderChurn(t *testing.T) {
	tally := churnTally{errs: map[string]int{}}
	for seed, done := int64(1), 0; done < *oracleCases; seed, done = seed+1, done+churnOps {
		churnSequence(t, seed, min(churnOps, *oracleCases-done), &tally)
		if t.Failed() {
			return
		}
	}
	t.Logf("%+v", tally)
	if tally.ties == 0 || len(tally.errs) < 5 || tally.lateHosts == 0 || tally.foreign == 0 {
		t.Fatalf("generator lost its edge cases: %+v", tally)
	}
}

func churnSequence(t *testing.T, seed int64, ops int, tally *churnTally) {
	spec := topo.Spec{Seed: seed, Regions: 4, SitesPerRegion: 2, ClustersPerSite: 1, HostsPerCluster: 4}
	w, err := topo.NewWorld(spec, simulation.NewEngine(), 12, 2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	cat := w.Catalog
	rng := rand.New(rand.NewSource(seed))
	srv, err := core.NewHierarchicalServer(cat, core.PaperWeights, nil)
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, region := range w.Top.Regions {
		all = append(all, w.Top.HostsByRegion[region]...)
	}
	pubs := map[string]*gridstate.Publisher{}
	var byRegion []*gridstate.Publisher
	for _, region := range w.Top.Regions {
		var tracked []string
		for _, h := range w.Top.HostsByRegion[region] {
			if rng.Intn(6) > 0 {
				tracked = append(tracked, h)
			}
		}
		if rng.Intn(2) == 0 { // a foreign host, so a region's scan must stay in its part
			if h := all[rng.Intn(len(all))]; !slices.Contains(tracked, h) && !slices.Contains(w.Top.HostsByRegion[region], h) {
				tracked = append(tracked, h)
				tally.foreign++
			}
		}
		pub, err := gridstate.NewPublisher("hub."+region, tracked, churnBuilder{})
		if err != nil {
			t.Fatal(err)
		}
		byRegion = append(byRegion, pub)
	}
	addRegion := func(i int) {
		region := w.Top.Regions[i]
		if err := srv.AddRegion(region, byRegion[i]); err != nil {
			t.Fatal(err)
		}
		pubs[region] = byRegion[i]
	}
	late := len(w.Top.Regions) - 1
	for i := range late {
		addRegion(i)
	}
	names := cat.LogicalNames()
	interned := map[string]bool{}
	for _, lg := range names {
		locs, _ := cat.Locations(lg)
		for _, l := range locs {
			interned[l.Host] = true
		}
	}
	var now time.Duration
	var want core.HierarchyStats
	for op := range ops {
		if op == ops/5 {
			addRegion(late)
		}
		switch k := rng.Intn(20); {
		case k < 9:
			lg := names[rng.Intn(len(names))]
			if rng.Intn(40) == 0 {
				lg = "lfn:nowhere"
			}
			got, gotErr := srv.Rank(lg, now)
			ref, refErr := refHierRank(cat, pubs, lg, now, &want)
			tally.ranks++
			if d := diffChurn(got, gotErr, ref, refErr); d != "" {
				t.Errorf("seed %d op %d: Rank(%s): %s", seed, op, lg, d)
				return
			}
			if refErr != nil {
				tally.errs[churnErrKind(refErr)]++
			}
			tally.ties += churnTies(cat, pubs, lg, now)
		case k < 14:
			host := all[rng.Intn(len(all))]
			if rng.Intn(50) == 0 {
				host = "r99-stray" // in a region no server is ever added for
			}
			loc := replica.Location{Host: host, Path: fmt.Sprintf("/%c/", 'a'+rng.Intn(2)) + names[rng.Intn(len(names))]}
			if cat.Register(names[rng.Intn(len(names))], loc) == nil && !interned[host] {
				interned[host] = true
				tally.lateHosts++
			}
		case k < 17:
			lg := names[rng.Intn(len(names))]
			if locs, err := cat.Locations(lg); err == nil {
				loc := locs[rng.Intn(len(locs))]
				if err := cat.Unregister(lg, loc.Host, loc.Path); err != nil {
					t.Fatal(err)
				}
			}
		default:
			now += time.Minute
		}
		if got := srv.Stats(); got != want {
			t.Errorf("seed %d op %d: stats %+v, reference %+v", seed, op, got, want)
			return
		}
	}
}

func churnErrKind(err error) string {
	for _, kind := range []error{replica.ErrUnknownLogical, replica.ErrNoReplicas, core.ErrNoUsableReplica, errChurnFire} {
		if errors.Is(err, kind) {
			return kind.Error()
		}
	}
	if strings.Contains(err.Error(), "unregistered region") {
		return "unregistered region"
	}
	return err.Error()
}

// diffChurn compares one production answer with the reference's.
func diffChurn(got []core.Candidate, gotErr error, want []core.Candidate, wantErr error) string {
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("err %v, reference %v", gotErr, wantErr)
		}
		return ""
	}
	if d := core.DiffCandidates(got, want); d != "" {
		return "\n" + d
	}
	return ""
}

// churnTies reports 1 when some region's two best usable replicas of the
// file tie on score, so the tie-break decides its best.
func churnTies(cat *replica.ShardedCatalog, pubs map[string]*gridstate.Publisher, logical string, now time.Duration) int {
	regions, _ := cat.RegionsWith(logical)
	for _, region := range regions {
		pub, ok := pubs[region]
		if !ok {
			continue
		}
		locs, _ := cat.Shard(region).Locations(logical)
		var scores []float64
		for _, loc := range locs {
			if rep, err := pub.Snapshot(now).Lookup(loc.Host); err == nil {
				scores = append(scores, core.Score(rep, core.PaperWeights))
			}
		}
		slices.Sort(scores)
		if n := len(scores); n > 1 && scores[n-1] == scores[n-2] {
			return 1
		}
	}
	return 0
}
