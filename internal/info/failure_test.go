package info

import (
	"errors"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/netsim"
)

// TestLinkFailureMakesHostStale drives the full fault path: the Li-Zen
// uplink dies, NWS probes stall and get abandoned, the bandwidth series
// goes stale, and the information server starts reporting lz02 as
// unmonitored — which the selection layer interprets as "do not use".
func TestLinkFailureMakesHostStale(t *testing.T) {
	eng, tb, dep := paperSetup(t)
	if err := eng.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Healthy first.
	if _, err := dep.Server.Snapshot(eng.Now()).Lookup("lz02"); err != nil {
		t.Fatalf("healthy report failed: %v", err)
	}
	// Kill the Li-Zen -> THU uplink.
	lz := cluster.SwitchNode(cluster.SiteLiZen)
	thu := cluster.SwitchNode(cluster.SiteTHU)
	if err := tb.Network().SetLinkDown(lz, thu, true); err != nil {
		t.Fatal(err)
	}
	// Staleness threshold in paperSetup is 6 x 10s probes = 1 minute;
	// give it two.
	if err := eng.RunUntil(4 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Server.Snapshot(eng.Now()).Lookup("lz02"); !errors.Is(err, ErrNoData) {
		t.Fatalf("dead host report err = %v, want ErrNoData", err)
	}
	// Other candidates stay reportable.
	if _, err := dep.Server.Snapshot(eng.Now()).Lookup("hit0"); err != nil {
		t.Fatalf("unrelated host affected: %v", err)
	}
	// Restore the link: probes resume and the host becomes usable again.
	if err := tb.Network().SetLinkDown(lz, thu, false); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(6 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Server.Snapshot(eng.Now()).Lookup("lz02"); err != nil {
		t.Fatalf("recovered host still unmonitored: %v", err)
	}
}

func TestLinkDownStateAccessors(t *testing.T) {
	eng, tb, _ := paperSetup(t)
	_ = eng
	lz := cluster.SwitchNode(cluster.SiteLiZen)
	thu := cluster.SwitchNode(cluster.SiteTHU)
	l, err := tb.Network().GetLink(lz, thu)
	if err != nil {
		t.Fatal(err)
	}
	if l.Down() {
		t.Fatal("link should start up")
	}
	if err := tb.Network().SetLinkDown(lz, thu, true); err != nil {
		t.Fatal(err)
	}
	if !l.Down() || l.EffectiveCapacity() != 0 {
		t.Fatalf("down link: down=%v cap=%v", l.Down(), l.EffectiveCapacity())
	}
	avail, err := tb.Network().AvailableBps("lz02", "alpha1")
	if err != nil || avail != 0 {
		t.Fatalf("avail over dead link = %v, %v", avail, err)
	}
	if err := tb.Network().SetLinkDown("ghost", thu, true); err == nil {
		t.Fatal("unknown link should error")
	}
}

// TestFlowStallsOnDeadLink checks the netsim semantics: a flow crossing a
// failed link gets zero rate and resumes when the link returns.
func TestFlowStallsOnDeadLink(t *testing.T) {
	eng, tb, _ := paperSetup(t)
	lz := cluster.SwitchNode(cluster.SiteLiZen)
	thu := cluster.SwitchNode(cluster.SiteTHU)
	done := false
	f, err := tb.Network().StartFlow("lz02", "alpha1", 10_000_000, netsim.FlowOptions{WindowBytes: 1 << 20}, netsim.FlowFunc(func(*netsim.Flow) { done = true }))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Network().SetLinkDown(lz, thu, true); err != nil {
		t.Fatal(err)
	}
	if f.RateBps() != 0 {
		t.Fatalf("stalled flow rate = %v", f.RateBps())
	}
	if err := eng.RunUntil(eng.Now() + 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("flow must not complete across a dead link")
	}
	if err := tb.Network().SetLinkDown(lz, thu, false); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(eng.Now() + 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("flow should complete after the link recovers")
	}
}
