package placement

import (
	"errors"
	"slices"
	"testing"
)

func newThreshold(t *testing.T, exec Executor) *ThresholdPolicy {
	t.Helper()
	p, err := NewThresholdPolicy(exec, regionOf)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidation(t *testing.T) {
	grid := newFakeGrid(nil)
	if _, err := NewThresholdPolicy(nil, regionOf); err == nil {
		t.Fatal("nil executor should be rejected")
	}
	if _, err := NewThresholdPolicy(grid, nil); err == nil {
		t.Fatal("nil RegionOf should be rejected")
	}
	if err := newThreshold(t, grid).OnAccess(Access{}); err == nil {
		t.Fatal("empty access should be rejected")
	}
}

func TestThresholdTriggersReplication(t *testing.T) {
	grid := newFakeGrid(map[string][]string{"file-a": {"r0"}})
	p := newThreshold(t, grid)
	// Two accesses from r1: below the threshold of 3, nothing happens.
	for i := 0; i < Threshold-1; i++ {
		mustAccess(t, p, access("file-a", "r1-host"))
	}
	if len(grid.log) != 0 {
		t.Fatalf("premature replication: %v", grid.log)
	}
	// Third access crosses the threshold: replicate into r1.
	mustAccess(t, p, access("file-a", "r1-host"))
	if want := []string{"add file-a r1"}; !slices.Equal(grid.log, want) {
		t.Fatalf("decisions = %v, want %v", grid.log, want)
	}
	if st := p.Stats(); st.Replications != 1 || st.Accesses != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNoDuplicateReplicationToSameSite(t *testing.T) {
	grid := newFakeGrid(map[string][]string{"file-a": {"r0"}})
	p := newThreshold(t, grid)
	for i := 0; i < 10; i++ {
		mustAccess(t, p, access("file-a", "r1-host"))
	}
	if len(grid.log) != 1 {
		t.Fatalf("should replicate exactly once: %v", grid.log)
	}
	// Accesses from a holding region never replicate.
	for i := 0; i < 10; i++ {
		mustAccess(t, p, access("file-a", "r0-host"))
	}
	if len(grid.log) != 1 {
		t.Fatalf("holding-region access should not replicate: %v", grid.log)
	}
}

func TestCountsResetAfterReplication(t *testing.T) {
	grid := newFakeGrid(map[string][]string{"f1": {"r0"}, "f2": {"r0"}})
	p := newThreshold(t, grid)
	// f1 crosses the threshold from r1; f2's count is its own.
	for i := 0; i < Threshold; i++ {
		mustAccess(t, p, access("f1", "r1-host"))
	}
	for i := 0; i < Threshold-1; i++ {
		mustAccess(t, p, access("f2", "r1-host"))
	}
	if want := []string{"add f1 r1"}; !slices.Equal(grid.log, want) {
		t.Fatalf("decisions = %v, want %v", grid.log, want)
	}
}

// TestThresholdPolicyInFlightGuard: while a copy of a file is outstanding,
// no region triggers a second one; once it lands, the next region can.
func TestThresholdPolicyInFlightGuard(t *testing.T) {
	grid := newFakeGrid(map[string][]string{"f": {"r0"}})
	async := &asyncGrid{fakeGrid: grid, pending: make(map[string]func(error))}
	p := newThreshold(t, async)
	for i := 0; i <= Threshold; i++ {
		mustAccess(t, p, access("f", "r1-host"))
	}
	for i := 0; i < Threshold; i++ {
		mustAccess(t, p, access("f", "r2-host"))
	}
	if want := []string{"add f r1"}; !slices.Equal(grid.log, want) {
		t.Fatalf("decisions with a copy in flight = %v, want %v", grid.log, want)
	}
	async.pending["f"](nil)
	if p.Stats().Replications != 1 {
		t.Fatalf("replications = %d, want 1", p.Stats().Replications)
	}
	mustAccess(t, p, access("f", "r1-host")) // count reset: no copy
	mustAccess(t, p, access("f", "r2-host")) // still past the threshold
	if want := []string{"add f r1", "add f r2"}; !slices.Equal(grid.log, want) {
		t.Fatalf("decisions after the copy landed = %v, want %v", grid.log, want)
	}
}

// TestThresholdPolicyRetriesAfterFailure: a copy that fails to start
// returns its error and leaves no in-flight mark, and one that fails in
// flight leaves the count; either way the next access tries again.
func TestThresholdPolicyRetriesAfterFailure(t *testing.T) {
	grid := newFakeGrid(map[string][]string{"f": {"r0"}})
	grid.startErr = errors.New("no route")
	p := newThreshold(t, grid)
	for i := 0; i < Threshold-1; i++ {
		mustAccess(t, p, access("f", "r1-host"))
	}
	if err := p.OnAccess(access("f", "r1-host")); !errors.Is(err, grid.startErr) {
		t.Fatalf("OnAccess = %v, want the start error", err)
	}
	grid.startErr = nil
	grid.failAdd = true
	mustAccess(t, p, access("f", "r1-host"))
	grid.failAdd = false
	mustAccess(t, p, access("f", "r1-host"))
	want := []string{"add f r1", "add f r1", "add f r1"}
	if !slices.Equal(grid.log, want) {
		t.Fatalf("decisions = %v, want %v", grid.log, want)
	}
	if got := grid.replicas["f"]; !slices.Equal(got, []string{"r0", "r1"}) || p.Stats().Replications != 1 {
		t.Fatalf("replicas = %v, replications = %d; want [r0 r1], 1", got, p.Stats().Replications)
	}
}

func TestNoReplicationBaseline(t *testing.T) {
	var n NoReplication
	if err := n.OnAccess(Access{Logical: "x", Client: "y"}); err != nil {
		t.Fatal(err)
	}
}
