package netsim_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/topo"
)

// refGraph is a scan-all-links reference router built from the generated
// cluster.Config, fully independent of netsim's adjacency/heap/tree code.
type refGraph struct {
	delay map[[2]string]time.Duration
	nodes map[string]bool
}

func refFromConfig(cfg cluster.Config) *refGraph {
	g := &refGraph{delay: map[[2]string]time.Duration{}, nodes: map[string]bool{}}
	add := func(a, b string, d time.Duration) {
		g.delay[[2]string{a, b}] = d
		g.delay[[2]string{b, a}] = d
		g.nodes[a], g.nodes[b] = true, true
	}
	for _, sc := range cfg.Sites {
		sw := cluster.SwitchNode(sc.Name)
		for _, hc := range sc.Hosts {
			add(hc.Name, sw, sc.LAN.Delay)
		}
	}
	for _, w := range cfg.WAN {
		add(cluster.SwitchNode(w.From), cluster.SwitchNode(w.To), w.Link.Delay)
	}
	return g
}

// tree runs the O(V^2) textbook Dijkstra from src to completion (same hop
// penalty and lexicographic tie-break as netsim, strict relaxation) and
// returns every reached node's path from src in pathString form.
func (g *refGraph) tree(src string) map[string]string {
	const hopPenalty = time.Microsecond
	dist := map[string]time.Duration{src: 0}
	prev := map[string]string{}
	visited := map[string]bool{}
	for {
		cur, best := "", time.Duration(math.MaxInt64)
		for n, d := range dist {
			if visited[n] {
				continue
			}
			if d < best || (d == best && (cur == "" || n < cur)) {
				best, cur = d, n
			}
		}
		if cur == "" {
			break
		}
		visited[cur] = true
		for k, d := range g.delay {
			if k[0] != cur {
				continue
			}
			nd := dist[cur] + d + hopPenalty
			if old, ok := dist[k[1]]; !ok || nd < old {
				dist[k[1]] = nd
				prev[k[1]] = cur
			}
		}
	}
	paths := map[string]string{}
	for dst := range dist {
		for at := dst; at != src; at = prev[at] {
			paths[dst] = prev[at] + ">" + at + ";" + paths[dst]
		}
	}
	return paths
}

// checkAgainstRef requires Route to take the reference's path link for
// link on every ordered pair of the reference's nodes, ErrNoRoute where
// the reference reaches nothing.
func checkAgainstRef(t *testing.T, n *netsim.Network, ref *refGraph) {
	t.Helper()
	for src := range ref.nodes {
		want := ref.tree(src)
		for dst := range ref.nodes {
			if src == dst {
				continue
			}
			path, err := n.Route(src, dst)
			w, ok := want[dst]
			switch {
			case !ok && !errors.Is(err, netsim.ErrNoRoute):
				t.Errorf("route %s -> %s: %q (err %v), reference finds no route", src, dst, pathString(path), err)
			case ok && err != nil:
				t.Errorf("route %s -> %s: %v, reference %q", src, dst, err, w)
			case ok && pathString(path) != w:
				t.Errorf("route %s -> %s: %q, reference %q", src, dst, pathString(path), w)
			}
		}
	}
}

// TestRouteTreeMatchesReferenceOnTopo checks routing on the core against
// the reference scan-all-links Dijkstra, link for link on every ordered
// pair, across seeded planet topologies of 2 to 4 regions — a 2-region
// world's backbone is one link, so the whole world is one tree. Each world
// is checked as generated, then again after additions the symmetric
// generator never makes: an express link from one host to another (both
// become core), a transmit-only probe (core, unreachable as a
// destination), an island nothing links to, and an equal-delay diamond
// below a region hub whose two arms' names sort against their insertion
// order, so the core's name tie-break decides which arm a route takes.
func TestRouteTreeMatchesReferenceOnTopo(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for regions := 2; regions <= 4; regions++ {
				t.Run(fmt.Sprintf("regions=%d", regions), func(t *testing.T) {
					top, err := topo.Generate(topo.Spec{
						Seed: seed, Regions: regions,
						SitesPerRegion: 2, ClustersPerSite: 2, HostsPerCluster: 2,
					})
					if err != nil {
						t.Fatal(err)
					}
					tb, err := top.Build(simulation.NewEngine())
					if err != nil {
						t.Fatal(err)
					}
					n := tb.Network()
					ref := refFromConfig(top.Config)
					checkAgainstRef(t, n, ref)

					hosts := tb.Hosts()
					oneWay := func(from, to string, d time.Duration) {
						t.Helper()
						if err := n.AddDirectedLink(from, to, netsim.LinkConfig{CapacityBps: 1e9, Delay: d}); err != nil {
							t.Fatal(err)
						}
						ref.delay[[2]string{from, to}] = d
						ref.nodes[from], ref.nodes[to] = true, true
					}
					for _, nd := range []string{"probe", "island", "tie-b", "tie-a", "tie-t"} {
						if err := n.AddNode(nd); err != nil {
							t.Fatal(err)
						}
					}
					ref.nodes["island"] = true
					oneWay(hosts[0], hosts[len(hosts)-1], 50*time.Microsecond)
					oneWay("probe", hosts[1], time.Millisecond)
					hub := top.HubSwitch[top.Regions[0]]
					for _, arm := range [][2]string{{hub, "tie-b"}, {hub, "tie-a"}, {"tie-b", "tie-t"}, {"tie-a", "tie-t"}} {
						oneWay(arm[0], arm[1], time.Millisecond)
						oneWay(arm[1], arm[0], time.Millisecond)
					}
					checkAgainstRef(t, n, ref)
				})
			}
		})
	}
}

// TestRouteTreeRetainedBytes pins all the routing state the 10k-host
// planet world keeps after routing from every 100th host to hosts[0]: one
// 24 B routeNode per node, the core's edges and trees, and 99 memoized
// paths. When every source host kept its own 4 B/node tree, 1 400 of them
// were 55 MiB of planet-traffic's 122 MiB peak; now hosts share the sweep
// of their region hub. The bound of 32 B x nodes leaves the size-class
// rounding and the memo their room.
func TestRouteTreeRetainedBytes(t *testing.T) {
	top, err := topo.Generate(topo.Spec{
		Seed: 42, Regions: 10, SitesPerRegion: 20, ClustersPerSite: 2, HostsPerCluster: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := top.Build(simulation.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	n := tb.Network()
	hosts := tb.Hosts()
	nodes := len(n.Nodes())
	if len(hosts) != 10_000 {
		t.Fatalf("world has %d hosts, want 10000", len(hosts))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 100; i < len(hosts); i += 100 {
		if _, err := n.Route(hosts[i], hosts[0]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := n.RouteStats().TreeBuilds; got > 10 {
		t.Fatalf("%d tree builds, want <= 10 (one per region hub)", got)
	}
	retained := float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
	if limit := 32 * float64(nodes); retained > limit {
		t.Fatalf("routing state retains %.0f B on a %d-node world (%.1f B/node), want <= %.0f (32 B/node)",
			retained, nodes, retained/float64(nodes), limit)
	}
	t.Logf("routing state retains %.0f B, %.2f B/node over %d nodes, after %d tree builds",
		retained, retained/float64(nodes), nodes, n.RouteStats().TreeBuilds)
	// Keep the world alive across the second read: freeing its config or
	// the sorted host list there would offset the state being measured.
	runtime.KeepAlive(top)
	runtime.KeepAlive(tb)
	runtime.KeepAlive(hosts)
}

// TestRouteRebuildAllocs pins what a forced rebuildAdjacency allocates: a
// fixed set of flat arrays (8), the same on the paper testbed's 15 nodes
// as on a 36-node topo world. The per-node adjacency lists it replaced
// paid 34 and 73 there.
func TestRouteRebuildAllocs(t *testing.T) {
	paper, err := cluster.NewPaperTestbed(simulation.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	top, err := topo.Generate(topo.Spec{Seed: 1, Regions: 3, SitesPerRegion: 2, ClustersPerSite: 2, HostsPerCluster: 2})
	if err != nil {
		t.Fatal(err)
	}
	world, err := top.Build(simulation.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*cluster.Testbed{paper, world} {
		n := tb.Network()
		netsim.RebuildRoutes(n)
		if avg := testing.AllocsPerRun(100, func() { netsim.RebuildRoutes(n) }); avg > 8 {
			t.Errorf("rebuilding the routes of a %d-node world allocates %v objects, want <= 8",
				len(n.Nodes()), avg)
		}
	}
}

// BenchmarkRoutePlanet measures routing on the 10k-host planet world: a
// cold contraction, then routes from all 10 000 hosts to a fixed 64-host
// sample, so each iteration sweeps the core from every region hub and
// materializes 640 000 paths.
func BenchmarkRoutePlanet(b *testing.B) {
	top, err := topo.Generate(topo.Spec{
		Seed: 42, Regions: 10, SitesPerRegion: 20, ClustersPerSite: 2, HostsPerCluster: 25,
	})
	if err != nil {
		b.Fatal(err)
	}
	tb, err := top.Build(simulation.NewEngine())
	if err != nil {
		b.Fatal(err)
	}
	n := tb.Network()
	hosts := tb.Hosts()
	dsts := make([]string, 64)
	for i := range dsts {
		dsts[i] = hosts[i*len(hosts)/len(dsts)+7]
	}
	routeAll := func() {
		netsim.RebuildRoutes(n)
		for _, src := range hosts {
			for _, dst := range dsts {
				if src == dst {
					continue
				}
				if _, err := n.Route(src, dst); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	routeAll() // grow the path memo once: a rebuild clears it, keeping its room
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routeAll()
	}
}

// TestRouteTreeNeverStale is the cache-invalidation regression test: a
// cached tree must not be served after AddLink changes the topology, and
// fault-plane link events (SetLinkDown/up) must leave routing consistent
// with the documented static-routing semantics.
func TestRouteTreeNeverStale(t *testing.T) {
	eng := simulation.NewEngine()
	n := netsim.New(eng)
	for _, node := range []string{"a", "m1", "m2", "b"} {
		if err := n.AddNode(node); err != nil {
			t.Fatal(err)
		}
	}
	slow := netsim.LinkConfig{CapacityBps: 1e9, Delay: 30 * time.Millisecond}
	if err := n.AddLink("a", "m1", slow); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("m1", "b", slow); err != nil {
		t.Fatal(err)
	}
	path, err := n.Route("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || path[0].To() != "m1" {
		t.Fatalf("initial route = %v, want a->m1->b", pathString(path))
	}

	// AddLink after the tree is cached: the next query must see the new,
	// faster detour — a stale tree would keep answering via m1.
	fast := netsim.LinkConfig{CapacityBps: 1e9, Delay: time.Millisecond}
	if err := n.AddLink("a", "m2", fast); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("m2", "b", fast); err != nil {
		t.Fatal(err)
	}
	path, err = n.Route("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || path[0].To() != "m2" {
		t.Fatalf("route after AddLink = %v, want a->m2->b (stale tree served)", pathString(path))
	}

	// Fault-plane link event: routing is static by design (a down link
	// stays on the path and flows crossing it fail), so the path must be
	// unchanged while the link is down and after it recovers.
	if err := n.SetLinkDown("a", "m2", true); err != nil {
		t.Fatal(err)
	}
	down, err := n.Route("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if pathString(down) != pathString(path) {
		t.Fatalf("route changed across SetLinkDown: %v -> %v", pathString(path), pathString(down))
	}
	// A topology change DURING the fault episode must still take effect.
	faster := netsim.LinkConfig{CapacityBps: 1e9, Delay: 100 * time.Microsecond}
	if err := n.AddLink("a", "b", faster); err != nil {
		t.Fatal(err)
	}
	direct, err := n.Route("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != 1 {
		t.Fatalf("route after AddLink during fault = %v, want direct a->b", pathString(direct))
	}
	if err := n.SetLinkDown("a", "m2", false); err != nil {
		t.Fatal(err)
	}
	after, err := n.Route("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if pathString(after) != pathString(direct) {
		t.Fatalf("route changed across link recovery: %v -> %v", pathString(direct), pathString(after))
	}
}

// TestRouteTreeQueryOrderIrrelevant pins the byte-identity argument: two
// identical networks queried in different (src,dst) orders — one
// grouping queries by source, one interleaving them — must produce
// link-identical paths for every pair.
func TestRouteTreeQueryOrderIrrelevant(t *testing.T) {
	build := func() (*cluster.Testbed, *topo.Topology) {
		top, err := topo.Generate(topo.Spec{
			Seed: 9, Regions: 3, SitesPerRegion: 2, ClustersPerSite: 1, HostsPerCluster: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := top.Build(simulation.NewEngine())
		if err != nil {
			t.Fatal(err)
		}
		return tb, top
	}
	tb1, _ := build()
	tb2, _ := build()
	hosts := tb1.Hosts()
	type pair struct{ src, dst string }
	var pairs []pair
	for i, s := range hosts {
		for j, d := range hosts {
			if i != j && (i+j)%4 == 0 {
				pairs = append(pairs, pair{s, d})
			}
		}
	}
	got1 := map[pair]string{}
	for _, p := range pairs { // grouped by source (tree-friendly order)
		path, err := tb1.Network().Route(p.src, p.dst)
		if err != nil {
			t.Fatal(err)
		}
		got1[p] = pathString(path)
	}
	for i := len(pairs) - 1; i >= 0; i-- { // reversed, interleaving sources
		p := pairs[i]
		path, err := tb2.Network().Route(p.src, p.dst)
		if err != nil {
			t.Fatal(err)
		}
		if s := pathString(path); s != got1[p] {
			t.Fatalf("route %s -> %s differs by query order: %q vs %q", p.src, p.dst, got1[p], s)
		}
	}
}

func pathString(path []*netsim.Link) string {
	s := ""
	for _, l := range path {
		s += l.From() + ">" + l.To() + ";"
	}
	return s
}
