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

// dist runs the O(V^2) textbook Dijkstra (same hop penalty and
// lexicographic tie-break as netsim) and returns src's distance to dst.
func (g *refGraph) dist(src, dst string) time.Duration {
	const hopPenalty = time.Microsecond
	dist := map[string]time.Duration{src: 0}
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
			}
		}
	}
	d, ok := dist[dst]
	if !ok {
		return -1
	}
	return d
}

// pathDelay sums a netsim path's delays using the reference graph's
// delay table (netsim links don't expose Delay; the config is the truth).
func (g *refGraph) pathDelay(path []*netsim.Link) time.Duration {
	const hopPenalty = time.Microsecond
	var d time.Duration
	for _, l := range path {
		d += g.delay[[2]string{l.From(), l.To()}] + hopPenalty
	}
	return d
}

// TestRouteTreeMatchesReferenceOnTopo checks shortest-path-tree routing
// against the reference scan-all-links Dijkstra across seeded random
// planet topologies: every sampled pair's path must be contiguous, have
// the right endpoints, and match the reference distance exactly. Each
// world also gets one-way additions the symmetric generator never makes,
// aimed at the sweep's dead-end rule: an express link from one host to
// another (the sender now has two exits, the receiver is a leaf reachable
// from two parents),
// a transmit-only probe (a single exit that leads on, unreachable as a
// destination) and an island nothing links to.
func TestRouteTreeMatchesReferenceOnTopo(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			top, err := topo.Generate(topo.Spec{
				Seed: seed, Regions: 2 + int(seed%3),
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
			hosts := tb.Hosts()
			oneWay := func(from, to string, d time.Duration) {
				t.Helper()
				if err := n.AddDirectedLink(from, to, netsim.LinkConfig{CapacityBps: 1e9, Delay: d}); err != nil {
					t.Fatal(err)
				}
				ref.delay[[2]string{from, to}] = d
				ref.nodes[from], ref.nodes[to] = true, true
			}
			for _, nd := range []string{"probe", "island"} {
				if err := n.AddNode(nd); err != nil {
					t.Fatal(err)
				}
			}
			oneWay(hosts[0], hosts[len(hosts)-1], 50*time.Microsecond)
			oneWay("probe", hosts[1], time.Millisecond)
			for _, dst := range []string{"probe", "island"} {
				if _, err := n.Route(hosts[2], dst); !errors.Is(err, netsim.ErrNoRoute) {
					t.Fatalf("route %s -> %s: err %v, want ErrNoRoute", hosts[2], dst, err)
				}
				if ref.dist(hosts[2], dst) != -1 {
					t.Fatalf("reference reaches %s", dst)
				}
			}
			hosts = append(hosts, "probe")
			// Sample sources spread across the host list; each source's
			// tree answers every destination.
			for si := 0; si < len(hosts); si += 7 {
				src := hosts[si]
				if si+7 >= len(hosts) {
					src = "probe" // always sample the transmit-only source
				}
				for di := 0; di < len(hosts); di += 3 {
					dst := hosts[di]
					if src == dst || dst == "probe" {
						continue
					}
					path, err := n.Route(src, dst)
					if err != nil {
						t.Fatalf("route %s -> %s: %v", src, dst, err)
					}
					if path[0].From() != src || path[len(path)-1].To() != dst {
						t.Fatalf("route %s -> %s has endpoints %s -> %s",
							src, dst, path[0].From(), path[len(path)-1].To())
					}
					for i := 1; i < len(path); i++ {
						if path[i].From() != path[i-1].To() {
							t.Fatalf("route %s -> %s discontiguous at hop %d", src, dst, i)
						}
					}
					if got, want := ref.pathDelay(path), ref.dist(src, dst); got != want {
						t.Errorf("route %s -> %s delay %v, reference %v", src, dst, got, want)
					}
				}
			}
		})
	}
}

// TestRouteTreeRetainedBytes pins what a cached tree keeps alive on the
// 10k-host planet world: one int32 predecessor per node plus the struct,
// nothing else — no distances, no per-node path slots (40 B x nodes before
// the trees went lean; 1 400 cached trees were why planet-traffic peaked
// at 704 MiB). The bound of 6 B x nodes leaves the allocator's size-class
// rounding and the handful of memoized paths their room.
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
	// Warm the adjacency list, the sweep scratch and the cache maps.
	if _, err := n.Route(hosts[0], hosts[1]); err != nil {
		t.Fatal(err)
	}
	const trees = 64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 1; i <= trees; i++ {
		if _, err := n.Route(hosts[i*100], hosts[0]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := n.RouteStats().TreeBuilds; got != trees+1 {
		t.Fatalf("%d tree builds, want %d", got, trees+1)
	}
	perTree := float64(after.HeapAlloc-before.HeapAlloc) / trees
	if limit := 6 * float64(nodes); perTree > limit {
		t.Fatalf("a cached tree retains %.0f B on a %d-node world (%.1f B/node), want <= %.0f (6 B/node)",
			perTree, nodes, perTree/float64(nodes), limit)
	}
	t.Logf("%.0f B per cached tree, %.2f B/node over %d nodes", perTree, perTree/float64(nodes), nodes)
	runtime.KeepAlive(tb)
}

// TestRouteTreeNeverStale is the cache-invalidation regression test: a
// cached tree must not be served after AddLink changes the topology, and
// fault-plane link events (SetLinkDown/up) must leave routing consistent
// with the documented static-routing semantics.
func TestRouteTreeNeverStale(t *testing.T) {
	eng := simulation.NewEngine()
	n := netsim.New(eng, 1)
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
