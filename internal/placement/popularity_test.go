package placement

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"
)

// fakeGrid is an in-memory Executor recording every decision the policy
// issues, with synchronous copy completion. startErr refuses to start a
// copy; failAdd fails it in flight.
type fakeGrid struct {
	replicas map[string][]string // logical → holding regions, sorted
	log      []string
	startErr error
	failAdd  bool
}

func newFakeGrid(seedReplicas map[string][]string) *fakeGrid {
	g := &fakeGrid{replicas: make(map[string][]string)}
	for name, regions := range seedReplicas {
		g.replicas[name] = append([]string(nil), regions...)
		sort.Strings(g.replicas[name])
	}
	return g
}

func (g *fakeGrid) HoldingRegions(logical string) ([]string, error) {
	return append([]string(nil), g.replicas[logical]...), nil
}

func (g *fakeGrid) AddReplica(logical, region string, done func(error)) error {
	g.log = append(g.log, fmt.Sprintf("add %s %s", logical, region))
	if g.startErr != nil {
		return g.startErr
	}
	if g.failAdd {
		done(errors.New("copy failed"))
		return nil
	}
	g.replicas[logical] = append(g.replicas[logical], region)
	sort.Strings(g.replicas[logical])
	done(nil)
	return nil
}

func (g *fakeGrid) RemoveReplica(logical, region string) error {
	g.log = append(g.log, fmt.Sprintf("remove %s %s", logical, region))
	locs := g.replicas[logical]
	if len(locs) < 2 {
		return errors.New("would orphan last copy")
	}
	out := locs[:0]
	for _, r := range locs {
		if r != region {
			out = append(out, r)
		}
	}
	g.replicas[logical] = out
	return nil
}

func regionOf(host string) string { return host[:2] }

func popCfg() PopularityConfig {
	return PopularityConfig{
		RegionOf:    regionOf,
		Regions:     4,
		MinReplicas: 1,
		MaxReplicas: 3,
	}
}

func access(logical, client string) Access {
	return Access{Logical: logical, Client: client, ServedFrom: "r0-storage", At: time.Second}
}

func TestPopularityPolicyValidation(t *testing.T) {
	grid := newFakeGrid(nil)
	if _, err := NewPopularityPolicy(nil, popCfg()); err == nil {
		t.Fatal("nil executor should be rejected")
	}
	cfg := popCfg()
	cfg.RegionOf = nil
	if _, err := NewPopularityPolicy(grid, cfg); err == nil {
		t.Fatal("nil RegionOf should be rejected")
	}
	cfg = popCfg()
	cfg.Regions = 0
	if _, err := NewPopularityPolicy(grid, cfg); err == nil {
		t.Fatal("zero regions should be rejected")
	}
	cfg = popCfg()
	cfg.MinReplicas, cfg.MaxReplicas = 2, 1
	if _, err := NewPopularityPolicy(grid, cfg); err == nil {
		t.Fatal("max < min should be rejected")
	}
}

// TestPopularityPolicyGrowsHotFiles: a file hammered from many regions
// gains a replica in the highest-demand unserved region; a barely-touched
// file loses its extra replica from the lowest-demand region.
func TestPopularityPolicyGrowsAndShrinks(t *testing.T) {
	grid := newFakeGrid(map[string][]string{
		"hotfile":  {"r0"},
		"coldfile": {"r0", "r3"},
	})
	p, err := NewPopularityPolicy(grid, popCfg())
	if err != nil {
		t.Fatal(err)
	}
	// hotfile: 12 accesses across 3 regions (r1 dominates) → PD = 12*(3/4) = 9.
	// coldfile: 1 access from 1 region → PD = 0.25. Mean PD = 4.625;
	// hot threshold 6.94, cold threshold 2.31.
	for i := 0; i < 6; i++ {
		mustAccess(t, p, access("hotfile", "r1-host"))
	}
	for i := 0; i < 4; i++ {
		mustAccess(t, p, access("hotfile", "r2-host"))
	}
	for i := 0; i < 2; i++ {
		mustAccess(t, p, access("hotfile", "r0-host"))
	}
	mustAccess(t, p, access("coldfile", "r1-host"))

	if err := p.OnEpoch(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Files are processed in sorted-name order, so coldfile acts first.
	want := []string{"remove coldfile r0", "add hotfile r1"}
	if len(grid.log) != len(want) || grid.log[0] != want[0] || grid.log[1] != want[1] {
		t.Fatalf("decisions = %v, want %v", grid.log, want)
	}
	st := p.Stats()
	if st.Hot != 1 || st.Cold != 1 || st.Warm != 0 {
		t.Fatalf("classes = %d/%d/%d, want 1/0/1", st.Hot, st.Warm, st.Cold)
	}
	if st.Replications != 1 || st.Removals != 1 || st.Accesses != 13 {
		t.Fatalf("stats = %+v", st)
	}
	// coldfile's demand was in r1, not its holdings {r0, r3}: both hold
	// zero epoch demand, so the tie-break removes the first sorted (r0).
	if got := grid.replicas["coldfile"]; len(got) != 1 || got[0] != "r3" {
		t.Fatalf("coldfile replicas = %v, want [r3]", got)
	}
}

// TestPopularityPolicyBounds: replica factors never exceed MaxReplicas or
// drop below MinReplicas no matter how extreme the popularity.
func TestPopularityPolicyBounds(t *testing.T) {
	grid := newFakeGrid(map[string][]string{
		"maxed":  {"r0", "r1", "r2"},
		"pinned": {"r3"},
	})
	p, err := NewPopularityPolicy(grid, popCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustAccess(t, p, access("maxed", "r3-host"))
	}
	mustAccess(t, p, access("pinned", "r0-host"))
	if err := p.OnEpoch(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(grid.log) != 0 {
		t.Fatalf("decisions = %v, want none (both files at their bounds)", grid.log)
	}
}

// TestPopularityPolicyWindowReset: the epoch window is temporal locality —
// yesterday's hot file earns nothing this epoch.
func TestPopularityPolicyWindowReset(t *testing.T) {
	grid := newFakeGrid(map[string][]string{"f": {"r0"}, "g": {"r0"}})
	p, err := NewPopularityPolicy(grid, popCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustAccess(t, p, access("f", "r1-host"))
	}
	mustAccess(t, p, access("g", "r1-host"))
	if err := p.OnEpoch(time.Minute); err != nil {
		t.Fatal(err)
	}
	grew := len(grid.replicas["f"])
	if grew != 2 {
		t.Fatalf("f replicas = %d, want 2 after hot epoch", grew)
	}
	// Next epoch: only g is touched. f must not grow again on stale counts.
	mustAccess(t, p, access("g", "r2-host"))
	if err := p.OnEpoch(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(grid.replicas["f"]) != grew {
		t.Fatalf("f grew on stale popularity: %v", grid.replicas["f"])
	}
}

// TestPopularityPolicyInFlight: while a copy is outstanding the policy
// must not issue a duplicate for the same file.
func TestPopularityPolicyInFlightGuard(t *testing.T) {
	grid := newFakeGrid(map[string][]string{"f": {"r0"}, "g": {"r0"}})
	pending := make(map[string]func(error))
	async := &asyncGrid{fakeGrid: grid, pending: pending}
	p, err := NewPopularityPolicy(async, popCfg())
	if err != nil {
		t.Fatal(err)
	}
	hammer := func() {
		for i := 0; i < 10; i++ {
			mustAccess(t, p, access("f", "r1-host"))
		}
		mustAccess(t, p, access("g", "r1-host"))
	}
	hammer()
	if err := p.OnEpoch(time.Minute); err != nil {
		t.Fatal(err)
	}
	hammer()
	if err := p.OnEpoch(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	adds := 0
	for _, l := range grid.log {
		if l == "add f r1" {
			adds++
		}
	}
	if adds != 1 {
		t.Fatalf("duplicate in-flight adds: log = %v", grid.log)
	}
	// Complete the copy; the next hot epoch may grow again (to r2).
	pending["f"](nil)
	if p.Stats().Replications != 1 {
		t.Fatalf("replications = %d, want 1", p.Stats().Replications)
	}
}

// TestPopularityPolicyRetriesAfterStartFailure: a copy that fails to
// start never calls done, so the in-flight mark must be cleared at once;
// otherwise the file stays blocked for the rest of the run.
func TestPopularityPolicyRetriesAfterStartFailure(t *testing.T) {
	grid := newFakeGrid(map[string][]string{"f": {"r0"}, "g": {"r0"}})
	grid.startErr = errors.New("no route")
	p, err := NewPopularityPolicy(grid, popCfg())
	if err != nil {
		t.Fatal(err)
	}
	hammer := func() {
		for i := 0; i < 10; i++ {
			mustAccess(t, p, access("f", "r1-host"))
		}
		mustAccess(t, p, access("g", "r1-host"))
	}
	hammer()
	if err := p.OnEpoch(time.Minute); !errors.Is(err, grid.startErr) {
		t.Fatalf("epoch 1: err = %v, want the start error", err)
	}
	grid.startErr = nil
	hammer()
	if err := p.OnEpoch(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if want := []string{"add f r1", "add f r1"}; fmt.Sprint(grid.log) != fmt.Sprint(want) {
		t.Fatalf("decisions = %v, want %v (epoch 2 must retry)", grid.log, want)
	}
	if got := p.Stats().Replications; got != 1 {
		t.Fatalf("replications = %d, want 1", got)
	}
}

// asyncGrid defers AddReplica completion so tests can hold copies open.
type asyncGrid struct {
	*fakeGrid
	pending map[string]func(error)
}

func (g *asyncGrid) AddReplica(logical, region string, done func(error)) error {
	g.log = append(g.log, fmt.Sprintf("add %s %s", logical, region))
	g.pending[logical] = func(err error) {
		if err == nil {
			g.replicas[logical] = append(g.replicas[logical], region)
			sort.Strings(g.replicas[logical])
		}
		done(err)
	}
	return nil
}

// TestPopularityPolicyDeterministicDecisions: identical access multisets
// fed in different orders yield the identical decision log.
func TestPopularityPolicyDeterministicDecisions(t *testing.T) {
	run := func(reverse bool) []string {
		grid := newFakeGrid(map[string][]string{
			"a": {"r0"}, "b": {"r1"}, "c": {"r0", "r1", "r2"}, "d": {"r2", "r3"},
		})
		p, err := NewPopularityPolicy(grid, popCfg())
		if err != nil {
			t.Fatal(err)
		}
		var accs []Access
		for i := 0; i < 9; i++ {
			accs = append(accs, access("a", fmt.Sprintf("r%d-host", i%3)))
		}
		for i := 0; i < 9; i++ {
			accs = append(accs, access("b", "r2-host"))
		}
		accs = append(accs, access("c", "r0-host"), access("d", "r1-host"))
		if reverse {
			for i, j := 0, len(accs)-1; i < j; i, j = i+1, j-1 {
				accs[i], accs[j] = accs[j], accs[i]
			}
		}
		for _, a := range accs {
			mustAccess(t, p, a)
		}
		if err := p.OnEpoch(time.Minute); err != nil {
			t.Fatal(err)
		}
		return grid.log
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("decision counts differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decisions diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func mustAccess(t *testing.T, p Policy, a Access) {
	t.Helper()
	if err := p.OnAccess(a); err != nil {
		t.Fatal(err)
	}
}

// TestPolicyAdapters: the legacy strategies satisfy the Policy interface
// and report coherent stats.
func TestPolicyAdapters(t *testing.T) {
	var n Policy = NoReplication{}
	if err := n.OnAccess(Access{Logical: "f", Client: "c"}); err != nil {
		t.Fatal(err)
	}
	if err := n.OnEpoch(time.Second); err != nil {
		t.Fatal(err)
	}
	if n.Stats() != (Stats{}) {
		t.Fatalf("NoReplication stats = %+v, want zero", n.Stats())
	}
}
