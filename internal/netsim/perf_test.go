package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"github.com/hpclab/datagrid/internal/simulation"
)

// benchStarNet builds a star topology (hub router, nLeaves hosts) and
// starts one flow per leaf pair so the hub links are shared bottlenecks.
func benchStarNet(tb testing.TB, nLeaves, nFlows int) (*simulation.Engine, *Network) {
	tb.Helper()
	eng := simulation.NewEngine()
	n := New(eng)
	if err := n.AddNode("hub"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < nLeaves; i++ {
		name := fmt.Sprintf("h%02d", i)
		if err := n.AddNode(name); err != nil {
			tb.Fatal(err)
		}
		if err := n.AddLink(name, "hub", LinkConfig{
			CapacityBps: 100e6, Delay: 5 * time.Millisecond, LossRate: 1e-4,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	for f := 0; f < nFlows; f++ {
		src := fmt.Sprintf("h%02d", f%nLeaves)
		dst := fmt.Sprintf("h%02d", (f+nLeaves/2)%nLeaves)
		if _, err := n.StartFlow(src, dst, 50_000_000, FlowOptions{WindowBytes: 1 << 20}, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return eng, n
}

// BenchmarkReallocate measures one full max-min water-filling pass over a
// contended star topology — the simulator's hottest function.
func BenchmarkReallocate(b *testing.B) {
	for _, nFlows := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("flows=%d", nFlows), func(b *testing.B) {
			_, n := benchStarNet(b, 32, nFlows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.reallocate()
			}
		})
	}
}

// benchTrunkNet builds nFlows source hosts and nFlows sinks on either side
// of one shared trunk (src -> hubA -> hubB -> dst), one long-lived flow per
// pair, so all flows form a single component. Access delays differ per
// source, so every flow has its own RTT and hence its own window cap. With
// a fat trunk the component is cap-bound — one water-filling round per
// flow, the planet-traffic regime; with a thin one the trunk's fair share
// undercuts every cap and a single link-bound round fixes everyone. The
// engine runs past slow start so caps are the constant window bounds.
func benchTrunkNet(tb testing.TB, nFlows int, linkBound bool) *Network {
	tb.Helper()
	eng := simulation.NewEngine()
	n := New(eng)
	trunk := LinkConfig{CapacityBps: 100e9, Delay: time.Millisecond}
	if linkBound {
		trunk.CapacityBps = 100e6
	}
	for _, hub := range []string{"hubA", "hubB"} {
		if err := n.AddNode(hub); err != nil {
			tb.Fatal(err)
		}
	}
	if err := n.AddLink("hubA", "hubB", trunk); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < nFlows; i++ {
		src, dst := fmt.Sprintf("s%03d", i), fmt.Sprintf("d%03d", i)
		for _, nd := range []string{src, dst} {
			if err := n.AddNode(nd); err != nil {
				tb.Fatal(err)
			}
		}
		// A stride coprime to the flow counts scatters the delays, so cap
		// order is not id order.
		access := LinkConfig{CapacityBps: 1e9, Delay: time.Duration(1+(i*37)%nFlows) * 100 * time.Microsecond}
		if err := n.AddLink(src, "hubA", access); err != nil {
			tb.Fatal(err)
		}
		if err := n.AddLink("hubB", dst, LinkConfig{CapacityBps: 1e9, Delay: time.Millisecond}); err != nil {
			tb.Fatal(err)
		}
		if _, err := n.StartFlow(src, dst, 1<<40, FlowOptions{WindowBytes: 64 << 10}, nil); err != nil {
			tb.Fatal(err)
		}
	}
	if err := eng.RunUntil(5 * time.Second); err != nil {
		tb.Fatal(err)
	}
	return n
}

// BenchmarkReallocateCapBound measures one water-fill of a single
// cap-bound component: as many rounds as flows, each scanning the flows
// still unfixed, so ns/op grows quadratically with the flow count. Events
// never fill such a component — the cap-bound path answers them — so this
// is the cost of a forced recompute (docs/PERFORMANCE.md).
func BenchmarkReallocateCapBound(b *testing.B) {
	for _, nFlows := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("flows=%d", nFlows), func(b *testing.B) {
			n := benchTrunkNet(b, nFlows, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.reallocate()
			}
		})
	}
}

// BenchmarkReallocateLinkBound measures one water-fill of a single
// link-bound component: the shared trunk's fair share fixes every flow in
// one round of two passes.
func BenchmarkReallocateLinkBound(b *testing.B) {
	for _, nFlows := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("flows=%d", nFlows), func(b *testing.B) {
			n := benchTrunkNet(b, nFlows, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.reallocate()
			}
		})
	}
}

// BenchmarkReallocateDeparture measures one flow leaving a large component
// that stays whole, and the same transfer starting again: 256 cap-bound
// flows share one trunk, and the leaving flow's own access links empty with
// it. The spanning certificate settles the departure in O(path) where a
// rebuild re-ran the union-find over every remaining flow's path. Both
// halves drain on the cap-bound path, so no water-fill runs.
func BenchmarkReallocateDeparture(b *testing.B) {
	const flows = 256
	n := benchTrunkNet(b, flows, false)
	f := n.Flows()[flows-1]
	src, dst := f.src, f.dst
	cycle := func() {
		if err := n.CancelFlow(f); err != nil {
			b.Fatal(err)
		}
		var err error
		if f, err = n.StartFlow(src, dst, 1<<40, FlowOptions{WindowBytes: 64 << 10}, nil); err != nil {
			b.Fatal(err)
		}
	}
	cycle()
	rounds := n.pstats.Rounds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	if s := n.ReallocStats(); s.Rounds != rounds || s.Components != 1 {
		b.Fatalf("%d water-fill rounds ran and %d components are live; want 0 and 1", s.Rounds-rounds, s.Components)
	}
}

// TestWaterfillWorkCounters pins the round structure the work counters
// report: a 64-flow component of distinct binding caps takes one round per
// flow, scanning 64+63+...+1 unfixed flows, and its link-bound twin fixes
// everyone in one round.
func TestWaterfillWorkCounters(t *testing.T) {
	const flows = 64
	n := benchTrunkNet(t, flows, false)
	before := n.ReallocStats()
	n.reallocate()
	after := n.ReallocStats()
	if rounds := after.Rounds - before.Rounds; rounds != flows {
		t.Errorf("cap-bound component took %d rounds, want %d (one per distinct cap)", rounds, flows)
	}
	if scanned := after.FlowsScanned - before.FlowsScanned; scanned != flows*(flows+1)/2 {
		t.Errorf("FlowsScanned %d, want %d: each round scans the flows still unfixed", scanned, flows*(flows+1)/2)
	}

	n = benchTrunkNet(t, flows, true)
	before = n.ReallocStats()
	n.reallocate()
	after = n.ReallocStats()
	if rounds := after.Rounds - before.Rounds; rounds != 1 {
		t.Errorf("link-bound component took %d rounds, want 1", rounds)
	}
}

// benchLANWorld builds nLANs link-disjoint site LANs (hub + hosts, flows
// fanning out from h0 so each LAN is one component) with transfers large
// enough to stay active for the whole benchmark. It is the partitioned
// allocator's home turf: a local disturbance touches one LAN out of
// hundreds.
func benchLANWorld(tb testing.TB, nLANs, hosts int) *Network {
	tb.Helper()
	eng := simulation.NewEngine()
	n := New(eng)
	for l := 0; l < nLANs; l++ {
		hub := fmt.Sprintf("hub%03d", l)
		if err := n.AddNode(hub); err != nil {
			tb.Fatal(err)
		}
		for h := 0; h < hosts; h++ {
			name := fmt.Sprintf("l%03dh%d", l, h)
			if err := n.AddNode(name); err != nil {
				tb.Fatal(err)
			}
			if err := n.AddLink(name, hub, LinkConfig{
				CapacityBps: 100e6, Delay: 2 * time.Millisecond, LossRate: 1e-5,
			}); err != nil {
				tb.Fatal(err)
			}
		}
		src := fmt.Sprintf("l%03dh0", l)
		for h := 1; h < hosts; h++ {
			dst := fmt.Sprintf("l%03dh%d", l, h)
			if _, err := n.StartFlow(src, dst, 1<<40, FlowOptions{WindowBytes: 1 << 20}, nil); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return n
}

// BenchmarkReallocatePartitioned measures the cost of reacting to one
// local disturbance (a background-load change on a single LAN uplink) in
// a 200-site world. algo=incremental is the component-partitioned
// allocator, which water-fills only the disturbed LAN; algo=global adds
// what the historical algorithm paid for the same event, one water-fill of
// every active flow (globalComp). Both produce bitwise-identical rates —
// the partitioned run just refuses to touch the other 199 sites.
func BenchmarkReallocatePartitioned(b *testing.B) {
	const lans, hosts = 200, 3
	for _, bc := range []struct {
		name   string
		global bool
	}{
		{"algo=global", true},
		{"algo=incremental", false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			n := benchLANWorld(b, lans, hosts)
			g := globalComp(n) // the flows outlive the benchmark
			fracs := [2]float64{0.3, 0.6}
			disturb := func(i int) {
				if err := n.SetBackgroundLoad("l000h0", "hub000", fracs[i&1]); err != nil {
					b.Fatal(err)
				}
				if bc.global {
					n.waterfill(g, n.engine.Now())
				}
			}
			// Warm scratch buffers and the engine's event pool.
			disturb(0)
			disturb(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				disturb(i)
			}
		})
	}
}

// TestReallocatePartitionedSteadyStateAllocs pins the incremental hot
// path: once the dirty list, per-component scratch and the engine's event
// pool are warm, reacting to a local disturbance must not allocate.
func TestReallocatePartitionedSteadyStateAllocs(t *testing.T) {
	n := benchLANWorld(t, 50, 3)
	fracs := [2]float64{0.3, 0.6}
	for i := 0; i < 2; i++ {
		if err := n.SetBackgroundLoad("l000h0", "hub000", fracs[i&1]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		i++
		if err := n.SetBackgroundLoad("l000h0", "hub000", fracs[i&1]); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state incremental reallocation allocates %v objects/op, want 0", avg)
	}
}

// TestCapBoundSteadyStateAllocs pins the two halves of the cap-bound path:
// a ramp batch of two flows ticked and drained once without a water-fill,
// and the read of a link's usage that then rebuilds it, allocate nothing
// once the scratch and the batch pool are warm.
func TestCapBoundSteadyStateAllocs(t *testing.T) {
	n := benchLANWorld(t, 1, 3)
	fl := n.Flows()
	f, g := fl[0], fl[1]
	if b := f.ramp; b == nil || g.ramp != b || b.live != 2 || f.comp != g.comp || f.comp.tight != 0 {
		t.Fatalf("flows 0 and 1 share batch %v (%p, %p) in a component with %d tight links; want one batch of both with head-room",
			f.ramp != nil && f.ramp == g.ramp, f.ramp, g.ramp, f.comp.tight)
	}
	l := f.path[0]
	cwnd := f.cwndBps
	tick := func() {
		// The same batch over and over: the windows are put back, so the
		// flows never leave slow start.
		b := f.ramp
		n.engine.Cancel(b.ev)
		// The clock stays put, so the ticks book their next instant at
		// the batch's own; the engine never fires a batch before its
		// instant, when nothing can join it any more.
		n.rampOpen = nil
		for _, h := range b.flows {
			n.book(h, h.capBps(), cwnd)
			h.cwndBps, h.rateBps = cwnd, cwnd
		}
		before := n.pstats
		b.Fire(n.engine.Now())
		if s := n.pstats; s.Ramps-before.Ramps != 2 || s.Events-before.Events != 1 || s.CapBound-before.CapBound != 1 {
			t.Fatalf("the batch ran %d ticks through %d drains, %d cap-bound; want 2 ticks, one cap-bound drain",
				s.Ramps-before.Ramps, s.Events-before.Events, s.CapBound-before.CapBound)
		}
		if !f.comp.stale || f.ramp == nil || g.ramp != f.ramp {
			t.Fatal("the batch was water-filled, or its flows did not tick into one batch again")
		}
		if l.UsedBps() <= 0 || f.comp.stale {
			t.Fatalf("reading the link did not rebuild its usage (%v, stale=%v)", l.usedBps, f.comp.stale)
		}
	}
	tick()
	if avg := testing.AllocsPerRun(100, tick); avg != 0 {
		t.Fatalf("a cap-bound batched ramp tick and the rebuild on read allocate %v objects, want 0", avg)
	}
}

// TestTransferAllocs pins a whole warm two-stream transfer, started to
// done: slow start in shared batches, the drains, the completion. Once the
// route, the batch pool, the engine's slots and the scratch are warm, the
// only allocations are the two Flow records.
func TestTransferAllocs(t *testing.T) {
	eng, n := islandNet(t)
	transfer := func() {
		for s := 0; s < 2; s++ {
			if _, err := n.StartFlow("a1", "a3", 4<<20, FlowOptions{}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.RunUntil(math.MaxInt64); err != nil {
			t.Fatal(err)
		}
		if len(n.Flows()) != 0 {
			t.Fatalf("%d flows still active after the run", len(n.Flows()))
		}
	}
	transfer()
	if avg := testing.AllocsPerRun(20, transfer); avg != 2 {
		t.Fatalf("a warm two-stream transfer allocates %v objects, want its 2 Flows", avg)
	}
}

// endCounter is a flow receiver that counts the ends it is handed.
type endCounter struct{ n int }

func (c *endCounter) FlowEnded(*Flow) { c.n++ }

// TestFlowEndsIntoReceiverAllocs pins a flow's end — the completion
// event, the drain that re-shares the link, the report to the flow's
// receiver — at zero allocations: the receiver is a record, not a closure
// built per flow. The flows, of distinct sizes on one link without delay
// (so no slow start), are started up front; each run steps the engine to
// the next end.
func TestFlowEndsIntoReceiverAllocs(t *testing.T) {
	const runs = 20
	eng, n := buildPair(t, LinkConfig{CapacityBps: 100e6})
	ends := new(endCounter)
	for i := 1; i <= runs+1; i++ {
		if _, err := n.StartFlow("a", "b", int64(i)<<20, FlowOptions{}, ends); err != nil {
			t.Fatal(err)
		}
	}
	next := func() {
		for want := ends.n + 1; ends.n < want; {
			if !eng.Step() {
				t.Fatal("the queue drained before the next flow ended")
			}
		}
	}
	if avg := testing.AllocsPerRun(runs, next); avg != 0 {
		t.Fatalf("a flow ending into its receiver allocates %v objects, want 0", avg)
	}
	if ends.n != runs+1 || len(n.Flows()) != 0 {
		t.Fatalf("%d ends reported, %d flows active; want %d and 0", ends.n, len(n.Flows()), runs+1)
	}
}

// TestFlowSize holds a Flow to the runtime's 256-byte size class. The
// next class is 288 bytes, and every transfer stream and NWS probe is a
// Flow: one more word would raise every workload's bytes per op.
func TestFlowSize(t *testing.T) {
	if s := unsafe.Sizeof(Flow{}); s > 256 {
		t.Fatalf("a Flow is %d bytes, above the 256-byte size class", s)
	}
}

// TestLinkSize holds a Link to the 144-byte size class: the certificate's
// slot shares a word with the tight and down flags, so only its tree
// pointer is new. The next class is 160 bytes, and the planet world holds
// one Link per direction of every link.
func TestLinkSize(t *testing.T) {
	if s := unsafe.Sizeof(Link{}); s > 144 {
		t.Fatalf("a Link is %d bytes, above the 144-byte size class", s)
	}
}

// benchGridNet builds a size x size grid graph (n00 ... n77 style) with
// uniform links, the worst case for the Dijkstra rewrite.
func benchGridNet(tb testing.TB, size int) *Network {
	tb.Helper()
	eng := simulation.NewEngine()
	n := New(eng)
	name := func(r, c int) string { return fmt.Sprintf("n%d%d", r, c) }
	for r := 0; r < size; r++ {
		for c := 0; c < size; c++ {
			if err := n.AddNode(name(r, c)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	cfg := LinkConfig{CapacityBps: 1e9, Delay: time.Millisecond}
	for r := 0; r < size; r++ {
		for c := 0; c < size; c++ {
			if c+1 < size {
				if err := n.AddLink(name(r, c), name(r, c+1), cfg); err != nil {
					tb.Fatal(err)
				}
			}
			if r+1 < size {
				if err := n.AddLink(name(r, c), name(r+1, c), cfg); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return n
}

// BenchmarkRouteTreeCold measures an uncached route: one full Dijkstra
// sweep (shortest-path tree build) plus the first path materialization,
// corner-to-corner across an 8x8 grid graph, every node of which is core.
// Dropping the trees at the top of each iteration makes every Route call
// pay the cold cost.
func BenchmarkRouteTreeCold(b *testing.B) {
	n := benchGridNet(b, 8)
	if _, err := n.Route("n00", "n77"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.dropTrees()
		if _, err := n.Route("n00", "n77"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteTreeWarm measures the steady-state route lookup: the tree
// and the path are cached, so a query is two map/slice lookups.
func BenchmarkRouteTreeWarm(b *testing.B) {
	n := benchGridNet(b, 8)
	if _, err := n.Route("n00", "n77"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Route("n00", "n77"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddLinkBulkBuild measures topology construction (the 8x8 grid:
// 64 nodes, 112 duplex links). Before the generation-counter switch every
// addDirected reallocated the route-cache map, so an N-link build churned
// 2N maps; now invalidation is one flag store per link.
func BenchmarkAddLinkBulkBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchGridNet(b, 8)
	}
}

// TestReallocateSteadyStateAllocs pins the allocation-free hot path: once
// the scratch buffers and the engine's event pool are warm, a full
// reallocation must not allocate at all.
func TestReallocateSteadyStateAllocs(t *testing.T) {
	_, n := benchStarNet(t, 16, 64)
	// Warm the scratch arrays, the event free list and the heap capacity.
	n.reallocate()
	n.reallocate()
	avg := testing.AllocsPerRun(100, func() {
		n.reallocate()
	})
	if avg != 0 {
		t.Fatalf("steady-state reallocate allocates %v objects/op, want 0", avg)
	}
}

// TestRouteTreeColdAllocs pins the Dijkstra scratch reuse: after warm-up,
// a cold route (tree rebuild + first path) may only allocate the tree's
// int32 prev array and the exact-size path slice (2 measured; the bound
// leaves room for the path-memo map insert to grow a bucket). The dist
// and heap working arrays are shared Network scratch and must not
// reallocate.
func TestRouteTreeColdAllocs(t *testing.T) {
	n := benchGridNet(t, 8)
	if _, err := n.Route("n00", "n77"); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		n.dropTrees()
		if _, err := n.Route("n00", "n77"); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 6 {
		t.Fatalf("cold route allocates %v objects/op, want <= 6 (tree + path only)", avg)
	}
}

// TestRouteTreeWarmAllocs pins the steady state: with the tree built and
// the path memoized, a route query must not allocate at all.
func TestRouteTreeWarmAllocs(t *testing.T) {
	n := benchGridNet(t, 8)
	if _, err := n.Route("n00", "n77"); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := n.Route("n00", "n77"); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm route allocates %v objects/op, want 0", avg)
	}
}

// TestAddLinkBulkBuildAllocs pins the bulk-build cost of topology
// construction. The old per-(src,dst) route cache reallocated its map on
// every addDirected (2 per AddLink), so the 8x8 grid's 112 links paid 224
// throwaway map headers on top of the real work; invalidating by a flag
// the next Route reads pays none. The bound covers both builds (594
// measured plain, 734 under -race instrumentation) and sits below the old
// churn's >= 815 floor.
func TestAddLinkBulkBuildAllocs(t *testing.T) {
	avg := testing.AllocsPerRun(10, func() {
		benchGridNet(t, 8)
	})
	if avg > 800 {
		t.Fatalf("8x8 grid bulk build allocates %v objects/op, want <= 800", avg)
	}
}

// conservation holds the allocation n carries to what max-min fairness
// means, not to how it was found. Per link, the allocated rates sum to no
// more than the effective capacity and to what the link's usedBps says; no
// flow beats its own cap; and every flow has a bottleneck: it runs at its
// cap, or crosses a saturated link on which no flow runs faster. A round of
// the water-fill fixes every flow within allocEps of its minimum at that
// minimum, so each flow may sit that far under its limit and the capacity it
// leaves goes to a later one: the bottleneck tests allow allocEps per active
// flow. A NaN cap is no constraint at all — the water-fill fixes such a flow
// last, at an unconstrained rate (TestDefensiveFixBranchAccounting) — so its
// component is held only to valid rates for the others. The links' usedBps
// fields must be fresh: callers fill, or read UsedBps, first.
func conservation(n *Network) error {
	const slack = 1e-6
	active := n.Flows()
	tol := allocEps * float64(len(active)+1)
	sum := make([]float64, len(n.linkList))
	top := make([]float64, len(n.linkList)) // the fastest flow on each link
	unbound := make([]bool, len(n.linkList))
	for _, f := range active {
		cap := f.capBps()
		if math.IsNaN(cap) {
			for _, l := range f.comp.links {
				unbound[l.idx] = true
			}
			continue
		}
		if f.rateBps < 0 || math.IsNaN(f.rateBps) {
			return fmt.Errorf("flow %d has invalid rate %v", f.id, f.rateBps)
		}
		if f.rateBps > max(cap, 0)*(1+slack) {
			return fmt.Errorf("flow %d rate %.6g exceeds its cap %.6g", f.id, f.rateBps, cap)
		}
		for _, l := range f.path {
			sum[l.idx] += f.rateBps
			top[l.idx] = max(top[l.idx], f.rateBps)
		}
	}
	for i, l := range n.linkList {
		if unbound[i] {
			continue
		}
		if eff := l.EffectiveCapacity(); sum[i] > eff*(1+slack)+1e-9 {
			return fmt.Errorf("link %s->%s oversubscribed: sum %.6g > effective capacity %.6g", l.from, l.to, sum[i], eff)
		}
		if math.Abs(l.usedBps-sum[i]) > math.Max(1, sum[i])*slack {
			return fmt.Errorf("link %s->%s usedBps %.6g disagrees with flow sum %.6g", l.from, l.to, l.usedBps, sum[i])
		}
	}
flows:
	for _, f := range active {
		if unbound[f.path[0].idx] || f.rateBps >= max(f.capBps(), 0)*(1-tol) {
			continue
		}
		for _, l := range f.path {
			if sum[l.idx] >= l.EffectiveCapacity()*(1-tol) && f.rateBps >= top[l.idx]*(1-tol) {
				continue flows
			}
		}
		return fmt.Errorf("flow %d at %.9g has no bottleneck: under its cap %.9g, and on every link of its path there is room or a faster flow", f.id, f.rateBps, f.capBps())
	}
	return nil
}

// checkConservation reads every link's usage, which rebuilds what a
// cap-bound drain left stale, and reports what conservation finds.
func checkConservation(t *testing.T, n *Network, when string) {
	t.Helper()
	for _, l := range n.linkList {
		l.UsedBps()
	}
	if err := conservation(n); err != nil {
		t.Errorf("%s: %v", when, err)
	}
}

// TestReallocationConservation drives a contended network through starts,
// ramp ticks, background shifts, cancels and completions, checking after
// each disturbance that no link is oversubscribed and no flow beats its
// own cap.
func TestReallocationConservation(t *testing.T) {
	eng, n := benchStarNet(t, 8, 24)
	checkConservation(t, n, "after start")

	if err := eng.RunUntil(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	checkConservation(t, n, "mid slow-start")

	if err := n.SetBackgroundLoad("h00", "hub", 0.7); err != nil {
		t.Fatal(err)
	}
	checkConservation(t, n, "after background load")

	var cancel []*Flow
	for _, f := range n.Flows() {
		if f.id%3 == 0 {
			cancel = append(cancel, f)
		}
	}
	for _, f := range cancel {
		if err := n.CancelFlow(f); err != nil {
			t.Fatal(err)
		}
	}
	checkConservation(t, n, "after cancels")

	if err := n.SetLinkDown("h01", "hub", true); err != nil {
		t.Fatal(err)
	}
	checkConservation(t, n, "after link down")

	if err := eng.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkConservation(t, n, "steady state")

	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	for _, f := range n.Flows() {
		for _, l := range f.path {
			if l.Down() {
				return // stalled on the failed link, expected
			}
		}
		t.Errorf("flow %d still active after drain with no down link", f.id)
	}
}

// TestComponentFlowListsStaySorted pins the order invariant the completion
// handler and Flows depend on: every component's flow list is sorted by
// flow id at all times, across interleaved starts, cancels, merges, splits
// and completions.
func TestComponentFlowListsStaySorted(t *testing.T) {
	eng, n := benchStarNet(t, 8, 30)
	assertSorted := func(when string) {
		t.Helper()
		for _, c := range n.comps {
			if c.gone {
				continue
			}
			for i := 1; i < len(c.flows); i++ {
				if c.flows[i-1].id >= c.flows[i].id {
					t.Fatalf("%s: component %d out of order at %d: %d >= %d",
						when, c.id, i, c.flows[i-1].id, c.flows[i].id)
				}
			}
		}
	}
	assertSorted("after start")
	for _, id := range []int64{4, 17, 0, 29, 12} {
		for _, f := range n.Flows() {
			if f.id == id {
				if err := n.CancelFlow(f); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		assertSorted(fmt.Sprintf("after cancel %d", id))
	}
	if err := eng.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	assertSorted("mid run")
	if _, err := n.StartFlow("h02", "h05", 1_000_000, FlowOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	assertSorted("after late start")
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	assertSorted("after drain")
}

// refRoute is a straightforward per-pair reference Dijkstra over the link
// table: O(V^2) pick-minimum by (distance, node name), strict relaxation,
// stop when dst is picked. It shares nothing with the production router —
// no contraction, core edges, heap, name ranks or tree — and returns the
// path link by link (nil when dst is unreachable).
func refRoute(n *Network, src, dst string) []*Link {
	const hopPenalty = time.Microsecond
	dist := map[string]time.Duration{src: 0}
	prev := map[string]*Link{}
	visited := map[string]bool{}
	for {
		cur, best := "", time.Duration(math.MaxInt64)
		for nm, d := range dist {
			if visited[nm] {
				continue
			}
			if d < best || (d == best && (cur == "" || nm < cur)) {
				best, cur = d, nm
			}
		}
		if cur == "" || cur == dst {
			break
		}
		visited[cur] = true
		for k, l := range n.links {
			if k.from != cur {
				continue
			}
			nd := dist[cur] + l.cfg.Delay + hopPenalty
			if d, ok := dist[k.to]; !ok || nd < d {
				dist[k.to] = nd
				prev[k.to] = l
			}
		}
	}
	if _, ok := dist[dst]; !ok {
		return nil
	}
	var path []*Link
	for at := dst; at != src; at = prev[at].from {
		path = append([]*Link{prev[at]}, path...)
	}
	return path
}

// checkRoutesAgainstReference requires Route to agree with refRoute link
// for link on every ordered node pair, ErrNoRoute included.
func checkRoutesAgainstReference(t *testing.T, n *Network) {
	t.Helper()
	for _, src := range n.Nodes() {
		for _, dst := range n.Nodes() {
			if src == dst {
				continue
			}
			want := refRoute(n, src, dst)
			got, err := n.Route(src, dst)
			if want == nil {
				if !errors.Is(err, ErrNoRoute) {
					t.Errorf("route %s->%s: got %v (err %v), reference finds no route", src, dst, got, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("route %s->%s: %v, reference path has %d hops", src, dst, err, len(want))
				continue
			}
			if len(got) != len(want) {
				t.Errorf("route %s->%s: %d hops, reference %d", src, dst, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("route %s->%s hop %d: %s->%s, reference %s->%s", src, dst, i,
						got[i].from, got[i].to, want[i].from, want[i].to)
					break
				}
			}
		}
	}
}

// TestRouteMatchesReferenceDijkstra cross-checks the production routing
// against refRoute, exact path for exact path: on a grid with heterogeneous
// delays, all core; on whole-world trees, which contract to one root; on
// hand-built shapes aimed at the peel rule — one-way links, which keep
// their endpoints in the core, and a deep fringe whose same-attachment
// pairs meet below the hub; and on seeded random directed graphs dense in
// distance ties, where the name-rank tie-break decides the tree.
func TestRouteMatchesReferenceDijkstra(t *testing.T) {
	type edge struct {
		from, to string
		ms       int
	}
	build := func(t *testing.T, nodes []string, edges []edge) *Network {
		t.Helper()
		n := New(simulation.NewEngine())
		for _, nd := range nodes {
			if err := n.AddNode(nd); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range edges {
			cfg := LinkConfig{CapacityBps: 1e9, Delay: time.Duration(e.ms) * time.Millisecond}
			if err := n.AddDirectedLink(e.from, e.to, cfg); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	// duplex adds each edge both ways, with the same delay.
	duplex := func(edges ...edge) []edge {
		var out []edge
		for _, e := range edges {
			out = append(out, e, edge{e.to, e.from, e.ms})
		}
		return out
	}
	// hierarchy is a topo-shaped tree: region hubs r0 and r1 (joined by
	// backbone), a site hub below each, two cluster switches below each
	// site hub, two hosts below each switch, every delay distinct.
	hierarchy := func(backbone ...edge) ([]string, []edge) {
		nodes := []string{"r0", "r1"}
		edges := backbone
		ms := 1
		hang := func(parent, child string) {
			nodes = append(nodes, child)
			edges = append(edges, duplex(edge{child, parent, ms})...)
			ms++
		}
		for _, r := range []string{"r0", "r1"} {
			hang(r, r+"s")
			for c := 0; c < 2; c++ {
				sw := fmt.Sprintf("%ss%d", r, c)
				hang(r+"s", sw)
				for h := 0; h < 2; h++ {
					hang(sw, fmt.Sprintf("%sh%d", sw, h))
				}
			}
		}
		return nodes, edges
	}
	t.Run("chain", func(t *testing.T) {
		checkRoutesAgainstReference(t, build(t, []string{"c", "a", "d", "b", "e"},
			duplex(edge{"a", "b", 1}, edge{"b", "c", 2}, edge{"c", "d", 3}, edge{"d", "e", 4})))
	})
	t.Run("star", func(t *testing.T) {
		checkRoutesAgainstReference(t, build(t, []string{"l1", "hub", "l2", "l3", "l4"},
			duplex(edge{"l1", "hub", 1}, edge{"l2", "hub", 1}, edge{"l3", "hub", 2}, edge{"l4", "hub", 3})))
	})
	t.Run("two regions, one backbone link", func(t *testing.T) {
		nodes, edges := hierarchy(duplex(edge{"r0", "r1", 40})...)
		checkRoutesAgainstReference(t, build(t, nodes, edges))
	})
	t.Run("two nodes joined both ways", func(t *testing.T) {
		checkRoutesAgainstReference(t, build(t, []string{"b", "a"}, duplex(edge{"a", "b", 1})))
	})
	t.Run("leaf with an extra one-way link", func(t *testing.T) {
		// leaf hangs off sw, and also transmits straight to far: it keeps
		// two out-links and stays core, as does far with its two in-links.
		checkRoutesAgainstReference(t, build(t, []string{"hub", "sw", "leaf", "near", "far"},
			append(duplex(edge{"sw", "hub", 1}, edge{"leaf", "sw", 1}, edge{"near", "sw", 1}, edge{"far", "hub", 5}),
				edge{"leaf", "far", 1})))
	})
	t.Run("transmit-only probe off a fringe switch", func(t *testing.T) {
		// probe -> sw is one-way: probe is a core node nothing reaches, and
		// sw, with one more in-link than out-links, stays core too.
		nodes, edges := hierarchy(duplex(edge{"r0", "r1", 40})...)
		checkRoutesAgainstReference(t, build(t, append(nodes, "probe"), append(edges, edge{"probe", "r0s1", 1})))
	})
	t.Run("depth-3 fringe over a core ring", func(t *testing.T) {
		// r0 and r1 close a ring through r2, so they stay core and their
		// hierarchies are depth-3 fringes: hosts below one switch meet at
		// the switch, hosts below sibling switches at the site hub.
		nodes, edges := hierarchy(duplex(edge{"r0", "r1", 40}, edge{"r1", "r2", 30}, edge{"r2", "r0", 20})...)
		checkRoutesAgainstReference(t, build(t, append(nodes, "r2"), edges))
	})
	t.Run("grid", func(t *testing.T) {
		const size = 5
		name := func(r, c int) string { return fmt.Sprintf("n%d%d", r, c) }
		var nodes []string
		var edges []edge
		for r := 0; r < size; r++ {
			for c := 0; c < size; c++ {
				nodes = append(nodes, name(r, c))
				if c+1 < size {
					d := 1 + (r*7+c*3+5)%11
					edges = append(edges, edge{name(r, c), name(r, c+1), d}, edge{name(r, c+1), name(r, c), d})
				}
				if r+1 < size {
					d := 1 + (r*7+c*3+10)%11
					edges = append(edges, edge{name(r, c), name(r+1, c), d}, edge{name(r+1, c), name(r, c), d})
				}
			}
		}
		checkRoutesAgainstReference(t, build(t, nodes, edges))
	})
	t.Run("leaf with two parents", func(t *testing.T) {
		// v's only out-edge returns to p1, but p2 reaches it one way too:
		// with two in-links v stays core, the shorter way in sets its
		// predecessor, and in the second graph p1's own shortest path runs
		// through it.
		checkRoutesAgainstReference(t, build(t,
			[]string{"s", "p1", "p2", "v", "w"},
			[]edge{{"s", "p1", 1}, {"p1", "v", 9}, {"s", "p2", 2}, {"p2", "v", 1}, {"v", "p1", 1}, {"p1", "w", 1}}))
		checkRoutesAgainstReference(t, build(t,
			[]string{"s", "p1", "p2", "v", "w"},
			[]edge{{"s", "p1", 9}, {"p1", "v", 1}, {"s", "p2", 1}, {"p2", "v", 1}, {"v", "p1", 1}, {"p1", "w", 1}}))
	})
	t.Run("single exit that leads on", func(t *testing.T) {
		// c has one link each way, but in from b and out to d: a one-way
		// ring, so c is not peeled.
		checkRoutesAgainstReference(t, build(t,
			[]string{"a", "b", "c", "d"},
			[]edge{{"a", "b", 1}, {"b", "c", 1}, {"c", "d", 1}, {"d", "b", 1}}))
	})
	t.Run("unreachable", func(t *testing.T) {
		// island has no links at all; src only transmits, so nothing routes
		// to it; both must come back ErrNoRoute from the core tree's -1
		// predecessor.
		n := build(t,
			[]string{"src", "a", "b", "island"},
			[]edge{{"src", "a", 1}, {"a", "b", 1}, {"b", "a", 1}})
		checkRoutesAgainstReference(t, n)
		for _, pair := range [][2]string{{"a", "island"}, {"a", "src"}, {"island", "a"}} {
			if _, err := n.Route(pair[0], pair[1]); !errors.Is(err, ErrNoRoute) {
				t.Errorf("route %s->%s: err %v, want ErrNoRoute", pair[0], pair[1], err)
			}
		}
	})
	t.Run("random directed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		for g := 0; g < 40; g++ {
			k := 4 + rng.Intn(12)
			var nodes []string
			for i := 0; i < k; i++ {
				// Insertion order is not name order: n10 sorts before n2.
				nodes = append(nodes, fmt.Sprintf("n%d", (i*7)%k+rng.Intn(2)*100))
			}
			uniq := map[string]bool{}
			var names []string
			for _, nd := range nodes {
				if !uniq[nd] {
					uniq[nd] = true
					names = append(names, nd)
				}
			}
			var edges []edge
			seen := map[[2]string]bool{}
			for i := 0; i < len(names)*2; i++ {
				a, b := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
				if a == b || seen[[2]string{a, b}] {
					continue
				}
				seen[[2]string{a, b}] = true
				edges = append(edges, edge{a, b, 1 + rng.Intn(3)}) // few distinct delays: many ties
			}
			checkRoutesAgainstReference(t, build(t, names, edges))
		}
	})
}

// BenchmarkParallelStreamRamp times one transfer of 8 MiB split over 1, 2
// and 4 streams, started together and run through slow start to
// completion, in a 50-site benchLANWorld whose own flows share the
// transfer's links. The streams' windows double at the same instants, so
// the ticks of one instant are one engine event; events/op counts them.
func BenchmarkParallelStreamRamp(b *testing.B) {
	for _, streams := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			n := benchLANWorld(b, 50, 3)
			left := 0
			done := func(*Flow) { left-- }
			transfer := func() {
				left = streams
				for s := 0; s < streams; s++ {
					if _, err := n.StartFlow("l000h1", "l000h2", 8<<20/int64(streams), FlowOptions{}, FlowFunc(done)); err != nil {
						b.Fatal(err)
					}
				}
				for left > 0 && n.engine.Step() {
				}
			}
			transfer() // the world's own slow start runs out; pools warm
			fired := n.engine.Fired()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				transfer()
			}
			b.ReportMetric(float64(n.engine.Fired()-fired)/float64(b.N), "events/op")
		})
	}
}
