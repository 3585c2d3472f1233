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

// The production water-fill finds most rounds without walking a path
// (partition.go). This file keeps the plain two-pass rounds it replaced as
// an independent oracle and diffs the two, bit for bit, over seeded random
// components. Production traffic is almost entirely cap-bound (about ten
// link-bound rounds in seven million on the planet world), so the
// generator below forces every other regime on purpose.

// oracleCases is how many components the differential sweep must cover.
// Tier-1 runs the default; CI raises it under the race detector
// (-oracle.cases=10000). A test-binary flag, not a program knob.
var oracleCases = flag.Int("oracle.cases", 1000, "components the water-fill oracle sweep diffs")

// OracleCases exposes the sweep size to the external topo-world sweep.
func OracleCases() int { return *oracleCases }

// referenceWaterfill is the two-pass water-fill exactly as it ran in
// production before the sorted-cap rewrite: every round walks every
// unfixed flow's path once to find the minimum limit and once more to fix
// the flows within epsilon of it, in ascending id order.
func referenceWaterfill(n *Network, c *component, now time.Duration) {
	flows := c.flows
	prev := make([]float64, len(flows))
	rem := make([]float64, len(flows))
	for i, f := range flows {
		prev[i] = f.rateBps
		rem[i] = f.remainingAt(now)
		f.fixed = false
		f.rateBps = 0
	}
	for _, l := range c.links {
		n.remCap[l.idx] = l.EffectiveCapacity()
		n.remCnt[l.idx] = l.nflows
		l.usedBps = 0
	}
	consume := func(f *Flow) {
		for _, l := range f.path {
			n.remCap[l.idx] -= f.rateBps
			if n.remCap[l.idx] < 0 {
				n.remCap[l.idx] = 0
			}
			n.remCnt[l.idx]--
			l.usedBps += f.rateBps
		}
	}
	unfixed := len(flows)
	for unfixed > 0 {
		n.pstats.Rounds++
		n.pstats.FlowsScanned += uint64(unfixed)
		if unfixed > n.pstats.MaxRoundFlows {
			n.pstats.MaxRoundFlows = unfixed
		}
		minLimit := math.Inf(1)
		for _, f := range flows {
			if f.fixed {
				continue
			}
			lim := f.capBps()
			for _, l := range f.path {
				share := n.remCap[l.idx] / float64(n.remCnt[l.idx])
				if share < lim {
					lim = share
				}
			}
			if lim < minLimit {
				minLimit = lim
			}
		}
		if math.IsInf(minLimit, 1) {
			minLimit = math.MaxFloat64
		}
		if minLimit < 0 {
			minLimit = 0
		}
		fixedAny := false
		for _, f := range flows {
			if f.fixed {
				continue
			}
			lim := f.capBps()
			for _, l := range f.path {
				share := n.remCap[l.idx] / float64(n.remCnt[l.idx])
				if share < lim {
					lim = share
				}
			}
			if lim <= minLimit*(1+allocEps) {
				f.rateBps = minLimit
				if f.rateBps == math.MaxFloat64 {
					f.rateBps = lim
				}
				consume(f)
				f.fixed = true
				unfixed--
				fixedAny = true
			}
		}
		if !fixedAny {
			for _, f := range flows {
				if f.fixed {
					continue
				}
				f.rateBps = minLimit
				consume(f)
				f.fixed = true
				unfixed--
			}
			break
		}
	}
	for i, f := range flows {
		if f.rateBps == prev[i] {
			continue
		}
		f.remaining = rem[i]
		f.settledAt = now
		f.setCompletionAt(now)
	}
}

// fillState is everything a water-fill of one component reads and writes
// outside its scratch: the flows' rate and anchor, the links' allocation.
type fillState struct {
	rate, remaining []float64
	settledAt       []time.Duration
	completionAt    []time.Duration
	used            []float64
	stats           ReallocStats
}

func captureFill(n *Network, c *component) fillState {
	var s fillState
	for _, f := range c.flows {
		s.rate = append(s.rate, f.rateBps)
		s.remaining = append(s.remaining, f.remaining)
		s.settledAt = append(s.settledAt, f.settledAt)
		s.completionAt = append(s.completionAt, f.completionAt)
	}
	for _, l := range c.links {
		s.used = append(s.used, l.usedBps)
	}
	s.stats = n.pstats
	return s
}

func restoreFill(n *Network, c *component, s fillState) {
	for i, f := range c.flows {
		f.rateBps, f.remaining = s.rate[i], s.remaining[i]
		f.settledAt, f.completionAt = s.settledAt[i], s.completionAt[i]
	}
	for i, l := range c.links {
		l.usedBps = s.used[i]
	}
	n.pstats = s.stats
}

// diffWaterfill runs the production water-fill and the reference on the
// same component from the same state and requires bit-equal results and
// equal round-structure counters. The component is left holding the
// (identical) result.
func diffWaterfill(n *Network, c *component, now time.Duration) error {
	before := captureFill(n, c)
	n.waterfill(c, now)
	got := captureFill(n, c)
	restoreFill(n, c, before)
	referenceWaterfill(n, c, now)
	want := captureFill(n, c)

	bits := math.Float64bits
	for i, f := range c.flows {
		if bits(got.rate[i]) != bits(want.rate[i]) {
			return fmt.Errorf("flow %d rateBps %v, reference %v", f.id, got.rate[i], want.rate[i])
		}
		if bits(got.remaining[i]) != bits(want.remaining[i]) || got.settledAt[i] != want.settledAt[i] {
			return fmt.Errorf("flow %d anchor (%v,%v), reference (%v,%v)", f.id,
				got.remaining[i], got.settledAt[i], want.remaining[i], want.settledAt[i])
		}
		if got.completionAt[i] != want.completionAt[i] {
			return fmt.Errorf("flow %d completionAt %v, reference %v", f.id, got.completionAt[i], want.completionAt[i])
		}
	}
	for i, l := range c.links {
		if bits(got.used[i]) != bits(want.used[i]) {
			return fmt.Errorf("link %s->%s usedBps %v, reference %v", l.from, l.to, got.used[i], want.used[i])
		}
	}
	g, w, b := got.stats, want.stats, before.stats
	if g.Rounds != w.Rounds || g.FlowsScanned != w.FlowsScanned ||
		g.MaxRoundFlows != w.MaxRoundFlows || g.MaxComponentFlows != w.MaxComponentFlows ||
		g.ComponentsDirtied != w.ComponentsDirtied {
		return fmt.Errorf("round structure (rounds %d, scanned %d, max round %d), reference (%d, %d, %d)",
			g.Rounds-b.Rounds, g.FlowsScanned-b.FlowsScanned, g.MaxRoundFlows,
			w.Rounds-b.Rounds, w.FlowsScanned-b.FlowsScanned, w.MaxRoundFlows)
	}
	return nil
}

// OracleDiffAll diffs every live component of n at the current virtual
// time and returns how many it covered. State is left as production would
// leave it, so a running simulation can call this between events.
func OracleDiffAll(n *Network) (int, error) {
	now := n.engine.Now()
	cases := 0
	for _, c := range n.comps {
		if c.gone {
			continue
		}
		if err := diffWaterfill(n, c, now); err != nil {
			return cases, fmt.Errorf("component %d (%d flows, %d links) at %v: %w", c.id, len(c.flows), len(c.links), now, err)
		}
		cases++
	}
	return cases, nil
}

// oracleNet builds one random hand-made network — a few disjoint stars and
// chains, some joined by a shared trunk — and returns it with its hosts by
// group.
func oracleNet(t *testing.T, rng *rand.Rand) (*Network, [][]string) {
	t.Helper()
	eng := simulation.NewEngine()
	n := New(eng, 1)
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
// re-allocation in between): the two water-fills are then diffed from
// exactly this state.
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
	if len(n.active) == 0 {
		return
	}
	regime := rng.Intn(6)
	base := 1e5 * float64(1+rng.Intn(1000))
	for _, f := range n.active {
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

// TestWaterfillOracle is the differential sweep over hand-built worlds:
// each case is one component of a random network, diffed once as traffic
// left it and once more after oraclePerturb forced a degenerate regime.
func TestWaterfillOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	cases := 0
	for world := 0; cases < *oracleCases; world++ {
		n := oracleWorld(t, rng)
		k, err := OracleDiffAll(n)
		if err != nil {
			t.Fatalf("world %d as built: %v", world, err)
		}
		cases += k
		oraclePerturb(n, rng)
		k, err = OracleDiffAll(n)
		if err != nil {
			t.Fatalf("world %d perturbed: %v", world, err)
		}
		cases += k
	}
	t.Logf("%d components diffed", cases)
}

// TestWaterfillOracleRoundingFallback reaches the one branch floats do not
// reach on their own. Fixing a flow at m <= share raises that link's share
// in exact arithmetic, by a relative 1e-9/(n-1) when m sits an epsilon
// under it — far above an ulp for any real flow count. The test fakes a
// link carrying a billion flows so the rise is a hundredth of an ulp, then
// walks caps and link capacities ulp by ulp past the threshold until
// rounding drops a post-consume share onto it: the production round must
// notice and finish the reference way. It runs once with the critical
// round first (candidates scanned from the snapshot) and once behind three
// filler rounds (candidates taken from the sorted order).
func TestWaterfillOracleRoundingFallback(t *testing.T) {
	for _, fillers := range []int{0, 3} {
		eng := simulation.NewEngine()
		n := New(eng, 1)
		for _, name := range []string{"a", "b"} {
			if err := n.AddNode(name); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.AddLink("a", "b", LinkConfig{CapacityBps: 1e9, Delay: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		var fs []*Flow
		for i := 0; i < 4+fillers; i++ {
			f, err := n.StartFlow("a", "b", 1<<30, FlowOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			f.ramping = false
			fs = append(fs, f)
		}
		// The fillers are fixed first, one round each, at 1, 2, 3... bit/s:
		// exact subtractions from a capacity near 1e15.
		used := 0.0
		for i := 0; i < fillers; i++ {
			fs[4+i].staticCapBps = float64(i + 1)
			used += float64(i + 1)
		}
		const fake = 1_000_000_000
		l := fs[0].path[0]
		l.nflows = fake
		c := fs[0].comp
		hits := 0
		for j := 0; j < 2000; j++ {
			m := 1e6 + 0.37*float64(j) // a variable: thr must round at run time, as waterfill's does
			thr := m * (1 + allocEps)
			// Two candidates whose cap order (2, 0) is not their id order, so
			// the scan "over higher ids" must start from the right flow.
			fs[0].staticCapBps = m * (1 + allocEps/2)
			fs[1].staticCapBps = 2 * m // not a candidate: fixed in this round only if a share drops to thr
			fs[2].staticCapBps = m
			fs[3].staticCapBps = 3 * m
			capacity := thr*float64(fake-fillers) + used
			for i := 0; i < 8; i++ {
				capacity = math.Nextafter(capacity, math.Inf(1))
				l.cfg.CapacityBps = capacity
				pre := (capacity - used) / float64(fake-fillers)
				post := (capacity - used - m) / float64(fake-fillers-1)
				fallback := pre > thr && post <= thr
				if fallback {
					hits++
				}
				if err := diffWaterfill(n, c, eng.Now()); err != nil {
					t.Fatalf("fillers %d cap %v capacity %v (share %v -> %v, threshold %v): %v", fillers, m, capacity, pre, post, thr, err)
				}
				if fallback && fs[1].rateBps != m {
					t.Fatalf("fillers %d cap %v capacity %v: flow 1 rate %v, want %v (captured by the candidates' round)", fillers, m, capacity, fs[1].rateBps, m)
				}
			}
		}
		if hits < 50 {
			t.Fatalf("fillers %d: rounding dropped a share onto the threshold %d times in the sweep, want >= 50: the fallback went untested", fillers, hits)
		}
		l.nflows = len(fs)
	}
}
