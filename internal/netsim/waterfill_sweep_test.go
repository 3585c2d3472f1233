package netsim

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// The water-fill is judged by what max-min fairness means (conservation,
// perf_test.go), over seeded random components. Production traffic is
// almost entirely cap-bound — the few fills it runs are small — so the
// generators below force every other regime on purpose.

// oracleCases is how many cases a sweep must cover: components here, engine
// events in the cap-bound oracle. Tier-1 runs the default; CI raises it
// under the race detector (-oracle.cases=10000). A test-binary flag, not a
// program knob.
var oracleCases = flag.Int("oracle.cases", 1000, "cases the allocator sweeps cover")

// OracleCases exposes the sweep size to the external cap-bound sweep.
func OracleCases() int { return *oracleCases }

// oracleNet builds one random hand-made network — a few disjoint stars and
// chains, some joined by a shared trunk — and returns it with its hosts by
// group.
func oracleNet(t *testing.T, rng *rand.Rand) (*Network, [][]string) {
	t.Helper()
	eng := simulation.NewEngine()
	n := New(eng)
	add := func(name string) {
		if err := n.AddNode(name); err != nil {
			t.Fatal(err)
		}
	}
	link := func(a, b string) {
		cfg := LinkConfig{
			CapacityBps: []float64{1e6, 10e6, 100e6, 1e9}[rng.Intn(4)],
			Delay:       time.Duration(rng.Intn(40)) * time.Millisecond / 2, // 0 is legal: zero-RTT, +Inf window cap
			LossRate:    []float64{0, 0, 1e-5, 1e-3}[rng.Intn(4)],
		}
		if err := n.AddLink(a, b, cfg); err != nil {
			t.Fatal(err)
		}
	}
	var hosts [][]string
	groups := 1 + rng.Intn(3)
	add("trunk")
	for g := 0; g < groups; g++ {
		var hs []string
		hub := fmt.Sprintf("g%dhub", g)
		add(hub)
		if rng.Intn(2) == 0 {
			link(hub, "trunk") // joins this group's flows with other groups'
		}
		k := 2 + rng.Intn(7)
		chain := rng.Intn(3) == 0
		prev := hub
		for h := 0; h < k; h++ {
			name := fmt.Sprintf("g%dh%d", g, h)
			add(name)
			if chain {
				link(prev, name)
				prev = name
			} else {
				link(hub, name)
			}
			hs = append(hs, name)
		}
		hosts = append(hosts, hs)
	}
	return n, hosts
}

// oracleWorld starts random flows on an oracleNet and lets the engine run a
// random while, so components hold flows at every stage: ramping,
// window-bound, link-bound, partly drained.
func oracleWorld(t *testing.T, rng *rand.Rand) *Network {
	t.Helper()
	n, hosts := oracleNet(t, rng)
	groups := len(hosts)
	flows := 1 + rng.Intn(24)
	for i := 0; i < flows; i++ {
		gs, gd := rng.Intn(groups), rng.Intn(groups)
		src := hosts[gs][rng.Intn(len(hosts[gs]))]
		dst := hosts[gd][rng.Intn(len(hosts[gd]))]
		if src == dst {
			continue
		}
		opts := FlowOptions{WindowBytes: []int{0, 8 << 10, 64 << 10, 1 << 20, 16 << 20}[rng.Intn(5)]}
		if rng.Intn(4) == 0 {
			opts.RateCapBps = 1e5 * float64(1+rng.Intn(500))
		}
		// Unroutable pairs (groups not on the trunk) are simply skipped.
		_, _ = n.StartFlow(src, dst, 1<<20+rng.Int63n(64<<20), opts, nil)
	}
	if err := n.engine.RunUntil(time.Duration(rng.Int63n(int64(2 * time.Second)))); err != nil {
		t.Fatal(err)
	}
	return n
}

// oraclePerturb rewrites link and flow state in place to force the regimes
// traffic rarely produces. It bypasses the public API on purpose (no
// re-allocation in between): the water-fill then runs from exactly this
// state.
func oraclePerturb(n *Network, rng *rand.Rand) {
	for _, l := range n.linkList {
		switch rng.Intn(8) {
		case 0:
			l.down = true // zero capacity: every flow across it is fixed at 0
		case 1, 2:
			l.bgLoad = rng.Float64() * 0.95
		case 3:
			l.cfg.CapacityBps = 1e4 * float64(1+rng.Intn(100)) // saturated
		}
	}
	active := n.Flows() // id-sorted
	if len(active) == 0 {
		return
	}
	regime := rng.Intn(6)
	base := 1e5 * float64(1+rng.Intn(1000))
	for _, f := range active {
		switch regime {
		case 0: // leave the natural caps: mixed cap/link rounds
		case 1: // caps within allocEps of each other
			f.ramping = false
			f.staticCapBps = base * (1 + allocEps*float64(rng.Intn(9))/4)
		case 2: // caps within allocEps of a link's fair share
			l := f.path[rng.Intn(len(f.path))]
			f.ramping = false
			f.staticCapBps = l.EffectiveCapacity() / float64(l.nflows) * (1 + allocEps*float64(rng.Intn(9)-4)/4)
		case 3: // a few unbounded flows among bounded ones
			if rng.Intn(3) == 0 {
				f.ramping = false
				f.staticCapBps = math.Inf(1)
			}
		case 4: // a NaN cap must never become the round minimum
			if rng.Intn(4) == 0 {
				f.staticCapBps = math.NaN()
			}
		case 5: // everything at once, plus zero and negative caps
			f.ramping = rng.Intn(2) == 0
			f.staticCapBps = []float64{0, -1, base, base * (1 + allocEps/2), math.Inf(1), math.NaN(), 1e3, 1e12}[rng.Intn(8)]
		}
	}
}

// fillAll water-fills every live component of n at the current instant and
// holds the result to conservation, and the fill's own books to having been
// spent: no link is left owing capacity or waiting for a flow. It returns
// how many components it covered.
func fillAll(n *Network) (int, error) {
	cases := 0
	for _, c := range n.comps {
		if c.gone {
			continue
		}
		n.waterfill(c, n.engine.Now())
		for _, l := range c.links {
			if n.remCap[l.idx] < 0 || n.remCnt[l.idx] != 0 {
				return cases, fmt.Errorf("link %s->%s left with capacity %v and %d unfixed flows on the water-fill's books", l.from, l.to, n.remCap[l.idx], n.remCnt[l.idx])
			}
		}
		cases++
	}
	return cases, conservation(n)
}

// TestWaterfillConservation is the property sweep over hand-built worlds:
// each case is one component of a random network, water-filled once as
// traffic left it and once more after oraclePerturb forced a degenerate
// regime. docs/PERFORMANCE.md records the mutations of waterfill it fails.
func TestWaterfillConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	cases := 0
	for world := 0; cases < *oracleCases; world++ {
		n := oracleWorld(t, rng)
		k, err := fillAll(n)
		if err != nil {
			t.Fatalf("world %d as built: %v", world, err)
		}
		cases += k
		oraclePerturb(n, rng)
		k, err = fillAll(n)
		if err != nil {
			t.Fatalf("world %d perturbed: %v", world, err)
		}
		cases += k
	}
	t.Logf("%d components water-filled", cases)
}
