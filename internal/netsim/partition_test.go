package netsim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// checkPartition asserts every structural invariant of the component
// partition between events: flows and components point at each other,
// every component flow is active, each link's flow count equals the
// component flows crossing it, every link on a component flow's path is
// owned by that flow's component, unoccupied links are unowned with zero
// allocation, no capacity leaks across components (per-link usedBps equals
// the owning component's flow sum), the completion heap is a valid
// min-heap over exactly the live components, and each component is the true
// one with a spanning certificate (certificateErr).
func checkPartition(t *testing.T, n *Network, when string) {
	t.Helper()
	if err := certificateErr(n); err != nil {
		t.Errorf("%s: %v", when, err)
	}
	live := 0
	seen := make(map[int64]bool)
	for _, c := range n.comps {
		if c.gone {
			continue
		}
		live++
		if len(c.flows) == 0 {
			t.Errorf("%s: live component %d has no flows", when, c.id)
		}
		if c.dirty || c.structDirty {
			t.Errorf("%s: component %d left dirty between events", when, c.id)
		}
		if c.heapIdx < 0 || c.heapIdx >= len(n.compHeap) || n.compHeap[c.heapIdx] != c {
			t.Errorf("%s: component %d heap index %d broken", when, c.id, c.heapIdx)
		}
		wantMinAt, wantMinID := noCompletion, noMinID
		for i, f := range c.flows {
			if i > 0 && c.flows[i-1].id >= f.id {
				t.Errorf("%s: component %d flow list unsorted at %d", when, c.id, i)
			}
			if f.comp != c {
				t.Errorf("%s: flow %d back-pointer is not component %d", when, f.id, c.id)
			}
			if f.state != FlowActive {
				t.Errorf("%s: component %d holds terminal flow %d", when, c.id, f.id)
			}
			if seen[f.id] {
				t.Errorf("%s: flow %d appears in two components", when, f.id)
			}
			seen[f.id] = true
			if f.completionAt < wantMinAt {
				wantMinAt, wantMinID = f.completionAt, f.id
			}
			for _, l := range f.path {
				if n.linkComp[l.idx] != c.id {
					t.Errorf("%s: flow %d link %s->%s owned by component %d, want %d",
						when, f.id, l.from, l.to, n.linkComp[l.idx], c.id)
				}
			}
		}
		if c.minAt != wantMinAt || c.minID != wantMinID {
			t.Errorf("%s: component %d cached min (%v,%d), want (%v,%d)",
				when, c.id, c.minAt, c.minID, wantMinAt, wantMinID)
		}
		for _, l := range c.links {
			if n.linkComp[l.idx] != c.id {
				t.Errorf("%s: component %d link list holds %s->%s owned by %d",
					when, c.id, l.from, l.to, n.linkComp[l.idx])
			}
		}
		if err := checkDemand(c); err != nil || c.mustFill {
			t.Errorf("%s: component %d (mustFill %v): %v", when, c.id, c.mustFill, err)
		}
	}
	if live != n.liveComps {
		t.Errorf("%s: liveComps %d, counted %d", when, n.liveComps, live)
	}
	if len(n.compHeap) != live {
		t.Errorf("%s: completion heap holds %d entries, want %d live components", when, len(n.compHeap), live)
	}
	for i := 1; i < len(n.compHeap); i++ {
		if compLess(n.compHeap[i], n.compHeap[(i-1)/2]) {
			t.Errorf("%s: completion heap property violated at %d", when, i)
		}
	}
	// Cross-check against state the partition does not own: StartFlow and
	// removeFlow keep each link's nflows, so it must count exactly the
	// component flows whose path crosses the link. Per-component rate
	// conservation, and no cross-component capacity leakage: a link's
	// allocation is exactly the flow sum of its owning component — flows
	// of other components contribute nothing.
	crossing := make([]int, len(n.linkList))
	perLink := make([]float64, len(n.linkList))
	for _, c := range n.comps {
		if c.gone {
			continue
		}
		for _, f := range c.flows {
			for _, l := range f.path {
				crossing[l.idx]++
				perLink[l.idx] += f.rateBps
			}
		}
	}
	for i, l := range n.linkList {
		cid := n.linkComp[i]
		if l.nflows != crossing[i] {
			t.Errorf("%s: link %s->%s counts %d flows, components route %d across it",
				when, l.from, l.to, l.nflows, crossing[i])
		}
		if l.nflows > 0 && cid < 0 {
			t.Errorf("%s: occupied link %s->%s owned by no component", when, l.from, l.to)
		}
		if l.nflows == 0 {
			if cid >= 0 {
				t.Errorf("%s: empty link %s->%s still owned by component %d", when, l.from, l.to, cid)
			}
			if l.UsedBps() != 0 || l.demand != 0 {
				t.Errorf("%s: empty link %s->%s has stale usedBps %v, demand %v", when, l.from, l.to, l.UsedBps(), l.demand)
			}
		}
		if cid >= 0 && n.comps[cid].gone {
			t.Errorf("%s: link %s->%s owned by freed component %d", when, l.from, l.to, cid)
		}
		if got := l.UsedBps(); math.Abs(got-perLink[i]) > math.Max(1, perLink[i])*1e-6 {
			t.Errorf("%s: link %s->%s usedBps %.6g disagrees with flow sum %.6g",
				when, l.from, l.to, got, perLink[i])
		}
		if eff := l.EffectiveCapacity(); perLink[i] > eff*(1+1e-6)+1e-9 {
			t.Errorf("%s: link %s->%s oversubscribed: %.6g > %.6g", when, l.from, l.to, perLink[i], eff)
		}
	}
}

// certificateErr holds the partition to the true one and each component's
// certificate to a spanning tree of it. Every component is connected through
// its flows (an over-merged one is not), and its link list knows each link's
// slot. Every live link's tree flow crosses it in the same component, and
// every flow's parent link is on its path. The parent edges number links +
// flows − 1 (one root), and following them up from any flow reaches that
// root (no cycle). An unoccupied link has no tree flow.
func certificateErr(n *Network) error {
	for _, c := range n.comps {
		if c.gone || len(c.flows) == 0 {
			continue
		}
		on := make(map[*Link][]*Flow)
		for _, f := range c.flows {
			for _, l := range f.path {
				on[l] = append(on[l], f)
			}
		}
		reached := map[*Flow]bool{c.flows[0]: true}
		for queue := c.flows[:1:1]; len(queue) > 0; queue = queue[1:] {
			for _, l := range queue[0].path {
				for _, g := range on[l] {
					if !reached[g] {
						reached[g] = true
						queue = append(queue, g)
					}
				}
			}
		}
		if len(reached) != len(c.flows) {
			return fmt.Errorf("component %d is not connected: its first flow reaches %d of its %d flows", c.id, len(reached), len(c.flows))
		}
		edges := 0
		for i, l := range c.links {
			if int(l.slot) != i {
				return fmt.Errorf("component %d link %s->%s sits in slot %d, records %d", c.id, l.from, l.to, i, l.slot)
			}
			if l.tree == nil {
				continue
			}
			edges++
			if l.tree.comp != c || !slices.Contains(l.tree.path, l) {
				return fmt.Errorf("component %d link %s->%s hangs under flow %d, which does not cross it in the component", c.id, l.from, l.to, l.tree.id)
			}
		}
		for _, f := range c.flows {
			if f.up < 0 {
				continue
			}
			edges++
			if !slices.Contains(f.path, n.linkList[f.up]) {
				return fmt.Errorf("component %d flow %d hangs under link %d, off its path", c.id, f.id, f.up)
			}
		}
		nodes := len(c.links) + len(c.flows)
		if edges != nodes-1 {
			return fmt.Errorf("component %d certificate has %d edges over %d links and %d flows, want %d", c.id, edges, len(c.links), len(c.flows), nodes-1)
		}
		for _, f := range c.flows {
			g, steps := f, 0
			for g != nil && g.up >= 0 {
				if steps++; steps > nodes {
					return fmt.Errorf("component %d certificate has a cycle above flow %d", c.id, f.id)
				}
				g = n.linkList[g.up].tree
			}
		}
	}
	for _, l := range n.linkList {
		if l.nflows == 0 && l.tree != nil {
			return fmt.Errorf("unoccupied link %s->%s still hangs under flow %d", l.from, l.to, l.tree.id)
		}
	}
	return nil
}

// islandNet builds two disconnected three-node chains (a1-a2-a3, b1-b2-b3)
// plus an unused bridge a3-b1, so flows can form one, two, or a merged
// component depending on the paths they occupy.
func islandNet(t *testing.T) (*simulation.Engine, *Network) {
	t.Helper()
	eng := simulation.NewEngine()
	n := New(eng)
	for _, nd := range []string{"a1", "a2", "a3", "b1", "b2", "b3"} {
		if err := n.AddNode(nd); err != nil {
			t.Fatal(err)
		}
	}
	cfg := LinkConfig{CapacityBps: 100e6, Delay: 2 * time.Millisecond, LossRate: 1e-5}
	for _, e := range [][2]string{{"a1", "a2"}, {"a2", "a3"}, {"b1", "b2"}, {"b2", "b3"}, {"a3", "b1"}} {
		if err := n.AddLink(e[0], e[1], cfg); err != nil {
			t.Fatal(err)
		}
	}
	return eng, n
}

// TestComponentMergeAndSplit walks the partition through its lifecycle:
// two island flows form two components, a bridging flow merges them into
// one, cancelling the bridge splits them back apart, and draining empties
// the partition entirely.
func TestComponentMergeAndSplit(t *testing.T) {
	eng, n := islandNet(t)
	fA, err := n.StartFlow("a1", "a3", 10_000_000, FlowOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fB, err := n.StartFlow("b1", "b3", 10_000_000, FlowOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, n, "two islands")
	if got := n.ReallocStats().Components; got != 2 {
		t.Fatalf("two island flows form %d components, want 2", got)
	}
	if fA.comp == fB.comp {
		t.Fatal("island flows share a component")
	}

	bridge, err := n.StartFlow("a1", "b3", 10_000_000, FlowOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, n, "bridged")
	s := n.ReallocStats()
	if s.Components != 1 {
		t.Fatalf("bridged world has %d components, want 1", s.Components)
	}
	if s.Merges == 0 {
		t.Fatal("bridge flow recorded no component merge")
	}
	if fA.comp != fB.comp || fA.comp != bridge.comp {
		t.Fatal("bridged flows not in one component")
	}

	if err := n.CancelFlow(bridge); err != nil {
		t.Fatal(err)
	}
	checkPartition(t, n, "after bridge cancel")
	s = n.ReallocStats()
	if s.Components != 2 {
		t.Fatalf("after bridge cancel %d components, want 2 (split)", s.Components)
	}
	if s.Splits == 0 {
		t.Fatal("bridge cancel recorded no component split")
	}
	if fA.comp == fB.comp {
		t.Fatal("islands still share a component after the bridge left")
	}

	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	checkPartition(t, n, "after drain")
	if got := n.ReallocStats().Components; got != 0 {
		t.Fatalf("drained world has %d live components, want 0", got)
	}
	if fA.State() != FlowDone || fB.State() != FlowDone {
		t.Fatalf("island flows ended %v/%v, want done", fA.State(), fB.State())
	}
}

// TestMergeCarriesPendingRebuild starts a flow while a component still
// waits for its rebuild, as a start inside an allocation pass would: StartFlow
// is never entered so today, but mergeComps must not lose the pending rebuild
// when it absorbs that component. Island b's bridge leaves without a drain,
// so b's two remaining flows no longer share a link; the new flow merges b
// into the larger island a, and the rebuild must still split b's far flow
// off rather than leave an over-merged component.
func TestMergeCarriesPendingRebuild(t *testing.T) {
	_, n := islandNet(t)
	start := func(src, dst string) *Flow {
		t.Helper()
		f, err := n.StartFlow(src, dst, 10_000_000, FlowOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for i := 0; i < 3; i++ {
		start("a1", "a3")
	}
	near, far := start("b1", "b2"), start("b2", "b3")
	bridge := start("b1", "b3")
	checkPartition(t, n, "before")
	n.removeFlow(bridge, FlowCanceled)
	if !far.comp.structDirty || near.comp != far.comp {
		t.Fatal("the bridge's departure left no rebuild pending")
	}
	joined := start("a2", "b2")
	checkPartition(t, n, "after a start merged the pending component")
	if joined.comp != near.comp || far.comp == near.comp {
		t.Fatalf("after the merge: the new flow shares a component with b1->b2: %v, b2->b3 with b1->b2: %v; want true, false",
			joined.comp == near.comp, far.comp == near.comp)
	}
}

// TestPartitionInvariantsUnderChurn drives a sharded world (disjoint LAN
// stars) plus one cross-LAN flow through starts, ramp ticks, background
// shifts, link failures, cancels and completions, checking the partition
// invariants after every disturbance.
func TestPartitionInvariantsUnderChurn(t *testing.T) {
	eng := simulation.NewEngine()
	n := New(eng)
	const lans = 6
	for i := 0; i < lans; i++ {
		hub := fmt.Sprintf("hub%d", i)
		if err := n.AddNode(hub); err != nil {
			t.Fatal(err)
		}
		for h := 0; h < 3; h++ {
			name := fmt.Sprintf("l%dh%d", i, h)
			if err := n.AddNode(name); err != nil {
				t.Fatal(err)
			}
			if err := n.AddLink(name, hub, LinkConfig{CapacityBps: 100e6, Delay: 3 * time.Millisecond, LossRate: 1e-4}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One WAN link tying LAN 0 and LAN 1's hubs together.
	if err := n.AddLink("hub0", "hub1", LinkConfig{CapacityBps: 50e6, Delay: 20 * time.Millisecond, LossRate: 1e-4}); err != nil {
		t.Fatal(err)
	}
	// All of a LAN's flows fan out from h0, so they share the h0->hub
	// uplink and form one component per LAN (links are directed; a ring
	// of flows would share nothing).
	var flows []*Flow
	for i := 0; i < lans; i++ {
		for h := 1; h < 3; h++ {
			f, err := n.StartFlow(fmt.Sprintf("l%dh0", i), fmt.Sprintf("l%dh%d", i, h), 5_000_000, FlowOptions{WindowBytes: 1 << 20}, nil)
			if err != nil {
				t.Fatal(err)
			}
			flows = append(flows, f)
			checkPartition(t, n, fmt.Sprintf("after start %d.%d", i, h))
		}
	}
	if got := n.ReallocStats().Components; got != lans {
		t.Fatalf("%d disjoint LANs form %d components, want %d", lans, got, lans)
	}
	cross, err := n.StartFlow("l0h0", "l1h2", 5_000_000, FlowOptions{WindowBytes: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, n, "after cross-LAN start")
	if got := n.ReallocStats().Components; got != lans-1 {
		t.Fatalf("cross-LAN flow leaves %d components, want %d (LAN0+LAN1 merged)", got, lans-1)
	}
	if err := eng.RunUntil(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	checkPartition(t, n, "mid slow-start")
	if err := n.SetBackgroundLoad("hub0", "hub1", 0.6); err != nil {
		t.Fatal(err)
	}
	checkPartition(t, n, "after background load")
	if err := n.SetLinkDown("l2h0", "hub2", true); err != nil {
		t.Fatal(err)
	}
	checkPartition(t, n, "after link down")
	if err := n.CancelFlow(cross); err != nil {
		t.Fatal(err)
	}
	checkPartition(t, n, "after cross cancel")
	if got := n.ReallocStats().Components; got != lans {
		t.Fatalf("cancelling the cross-LAN flow leaves %d components, want %d", got, lans)
	}
	if err := n.SetLinkDown("l2h0", "hub2", false); err != nil {
		t.Fatal(err)
	}
	checkPartition(t, n, "after link restore")
	for _, f := range flows[:4] {
		if f.State() == FlowActive {
			if err := n.CancelFlow(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkPartition(t, n, "after cancels")
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	checkPartition(t, n, "after drain")
	if len(n.Flows()) != 0 {
		t.Fatalf("%d flows still active after drain", len(n.Flows()))
	}
}

// TestSetLinkDownRegionIsolation pins the locality contract: failing and
// restoring a link in one island must not touch the other island's rates,
// anchors, cached completion times, or its component at all — and the
// allocation-work counters must show only the failed island re-allocating.
func TestSetLinkDownRegionIsolation(t *testing.T) {
	eng, n := islandNet(t)
	fA, err := n.StartFlow("a1", "a3", 50_000_000, FlowOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fB, err := n.StartFlow("b1", "b3", 50_000_000, FlowOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	before := n.ReallocStats()
	compB := fB.comp
	rateB := fB.rateBps
	remB := fB.remaining
	settledB := fB.settledAt
	completionB := fB.completionAt
	if rateB <= 0 {
		t.Fatalf("island B flow has no rate (%v)", rateB)
	}

	if err := n.SetLinkDown("a1", "a2", true); err != nil {
		t.Fatal(err)
	}
	if fA.rateBps != 0 {
		t.Fatalf("island A flow still has rate %v across a down link", fA.rateBps)
	}
	if err := n.SetLinkDown("a1", "a2", false); err != nil {
		t.Fatal(err)
	}
	if fA.rateBps <= 0 {
		t.Fatalf("island A flow has no rate (%v) after restore", fA.rateBps)
	}
	checkPartition(t, n, "after fail/restore")

	if fB.comp != compB {
		t.Error("island B changed component during island A's failure")
	}
	if fB.rateBps != rateB {
		t.Errorf("island B rate changed: %v -> %v", rateB, fB.rateBps)
	}
	if fB.remaining != remB || fB.settledAt != settledB {
		t.Errorf("island B anchor rewritten: (%v,%v) -> (%v,%v)", remB, settledB, fB.remaining, fB.settledAt)
	}
	if fB.completionAt != completionB {
		t.Errorf("island B cached completion moved: %v -> %v", completionB, fB.completionAt)
	}
	after := n.ReallocStats()
	// Each SetLinkDown water-fills exactly island A's component once.
	if got := after.ComponentsDirtied - before.ComponentsDirtied; got != 2 {
		t.Errorf("fail+restore dirtied %d component fills, want 2 (island A only)", got)
	}
	// Island A has one flow, so no water-filling round may have scanned
	// more than one flow — island B's component was never swept. (The two
	// fills above may be the first to run at all: the starts and ramp ticks
	// before them were cap-bound.)
	if after.MaxRoundFlows > 1 {
		t.Errorf("MaxRoundFlows %d -> %d during single-flow island failure, want at most 1",
			before.MaxRoundFlows, after.MaxRoundFlows)
	}
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if fB.State() != FlowDone {
		t.Fatalf("island B flow ended %v, want done", fB.State())
	}
}

// TestDefensiveFixBranchAccounting exercises the !fixed fallback in
// waterfill. The branch is unreachable through the public API (see the
// proof sketch in docs/PERFORMANCE.md); the one known trigger is a NaN
// limit, so the test plants a NaN staticCapBps on one flow: the round
// minimum ignores it, no round ever fixes it, and once every other flow is
// fixed the straggler falls to the defensive pass. It must maintain the
// same link accounting as the normal fix path: remCap/remCnt consumed,
// usedBps accumulated. Before the fix the branch set rates without
// touching any of the three, leaving the sensors' view (UsedBps,
// AvailableBps, Utilization) inconsistent with the allocation.
func TestDefensiveFixBranchAccounting(t *testing.T) {
	eng, n := islandNet(t)
	fA, err := n.StartFlow("a1", "a3", 10_000_000, FlowOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fB, err := n.StartFlow("a1", "a2", 10_000_000, FlowOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	realCap := fA.staticCapBps
	fA.staticCapBps = math.NaN()
	n.reallocate()
	fA.staticCapBps = realCap

	if !fA.fixed || !fB.fixed {
		t.Fatal("defensive branch left flows unfixed")
	}
	// fB is fixed normally in round one; the NaN flow is the defensive
	// pass's straggler, fixed at the unconstrained round minimum.
	if fB.rateBps <= 0 || fB.rateBps > fB.capBps() {
		t.Fatalf("normal flow rate %v outside (0, cap %v]", fB.rateBps, fB.capBps())
	}
	if fA.rateBps != math.MaxFloat64 {
		t.Fatalf("defensive rate %v, want the unconstrained round minimum %v", fA.rateBps, math.MaxFloat64)
	}
	shared, err := n.GetLink("a1", "a2")
	if err != nil {
		t.Fatal(err)
	}
	if want := fB.rateBps + fA.rateBps; shared.UsedBps() != want {
		t.Errorf("shared link usedBps %v after defensive fix, want %v", shared.UsedBps(), want)
	}
	if n.remCnt[shared.idx] != 0 {
		t.Errorf("shared link remCnt %d after defensive fix, want 0", n.remCnt[shared.idx])
	}
	if n.remCap[shared.idx] != 0 {
		t.Errorf("shared link remCap %v after defensive fix, want 0 (fully consumed)", n.remCap[shared.idx])
	}
	if avail, err := n.AvailableBps("a1", "a2"); err != nil || avail != 0 {
		t.Errorf("AvailableBps %v (err %v) inconsistent with defensive accounting, want 0", avail, err)
	}
	// No checkPartition here: the straggler's rate is unconstrained by
	// design, so the conservation half of it cannot hold until recovery.

	// A normal reallocation restores max-min rates and the engine drains.
	n.reallocate()
	checkPartition(t, n, "after recovery")
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if fA.State() != FlowDone || fB.State() != FlowDone {
		t.Fatalf("flows ended %v/%v after defensive episode, want done", fA.State(), fB.State())
	}
}

// TestPartitionedScanWork pins the partition's work bound with deterministic
// counters rather than timing: on a world of disjoint LANs, a single-link
// disturbance must re-scan only that LAN's component under the partitioned
// allocator, while the global algorithm (one water-fill of every active
// flow, globalComp) sweeps them all — a >= 5x gap at 16 LANs.
func TestPartitionedScanWork(t *testing.T) {
	build := func() (*Network, *Link) {
		eng := simulation.NewEngine()
		n := New(eng)
		const lans, hosts = 16, 4
		for i := 0; i < lans; i++ {
			hub := fmt.Sprintf("hub%d", i)
			if err := n.AddNode(hub); err != nil {
				t.Fatal(err)
			}
			for h := 0; h < hosts; h++ {
				name := fmt.Sprintf("l%dh%d", i, h)
				if err := n.AddNode(name); err != nil {
					t.Fatal(err)
				}
				if err := n.AddLink(name, hub, LinkConfig{CapacityBps: 100e6, Delay: 3 * time.Millisecond, LossRate: 1e-4}); err != nil {
					t.Fatal(err)
				}
			}
			for h := 0; h < hosts; h++ {
				if _, err := n.StartFlow(fmt.Sprintf("l%dh%d", i, h), fmt.Sprintf("l%dh%d", i, (h+1)%hosts), 50_000_000, FlowOptions{WindowBytes: 1 << 20}, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		l, err := n.GetLink("l0h0", "hub0")
		if err != nil {
			t.Fatal(err)
		}
		return n, l
	}
	n, l := build()
	g := globalComp(n)
	var partScanned, globalScanned uint64
	for i := 0; i < 10; i++ {
		start := n.pstats.FlowsScanned
		if err := n.SetBackgroundLoad(l.from, l.to, 0.1+0.01*float64(i%2)); err != nil {
			t.Fatal(err)
		}
		event := n.pstats.FlowsScanned
		n.waterfill(g, n.engine.Now())
		partScanned += event - start
		globalScanned += n.pstats.FlowsScanned - event
	}
	if partScanned == 0 || globalScanned == 0 {
		t.Fatalf("no scan work recorded (global %d, partitioned %d)", globalScanned, partScanned)
	}
	ratio := float64(globalScanned) / float64(partScanned)
	if ratio < 5 {
		t.Fatalf("partitioned allocator scanned %d flows vs global %d (%.1fx), want >= 5x",
			partScanned, globalScanned, ratio)
	}
	// The per-round sweep bound: no round may scan more flows than the
	// largest component holds.
	n, _ = build()
	s := n.ReallocStats()
	if s.MaxRoundFlows > s.MaxComponentFlows {
		t.Fatalf("MaxRoundFlows %d exceeds MaxComponentFlows %d", s.MaxRoundFlows, s.MaxComponentFlows)
	}
	if s.MaxComponentFlows > 4 {
		t.Fatalf("disjoint-LAN world grew a %d-flow component, want <= 4", s.MaxComponentFlows)
	}
}
