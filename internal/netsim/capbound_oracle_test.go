package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// The allocator answers most events without a water-fill (processDirty's
// cap-bound path) and leaves the links' usedBps to be rebuilt on read. This
// file is the judge of both: a seeded storm of API calls is stepped through
// the engine one event at a time, and after every drain and every event
// every live component is rewound to where the previous check found it and
// water-filled. What the drain or event left behind must be what the fill
// leaves behind, bit for bit. An event may drain several times (streams
// started together, a slow-start batch whose tick had to fill at once), and
// each drain answers for itself. The same rewind, over one scratch
// component of every active flow, is the global algorithm the partition is
// held to (StepGlobal).

// StormRegime shapes the flows and disturbances of one storm.
type StormRegime struct {
	Name string
	// WindowBytes and Streams are the transfer settings of a traffic
	// workload: Streams flows start together with the same endpoints and
	// options, so they share a cap exactly.
	WindowBytes int
	Streams     int
	// Horizon is the span the storm's operations are drawn over.
	Horizon time.Duration
	// Tight adds what traffic rarely produces: application rate caps tied
	// exactly, one ulp apart and inside allocEps of each other, windows of
	// every size, a zero-delay island whose flows have no cap at all, and
	// background loads that put a link's capacity within an ulp or two of
	// the head-room margin.
	Tight bool
}

// StormTally is what the storms of one regime covered.
type StormTally struct {
	Events     int    // engine events stepped and checked
	Components int    // live components rewound and diffed
	Fast       uint64 // components drained by the cap-bound path
	Filled     uint64 // components drained by a water-fill
	Rebuilds   int    // stale components a link read had to rebuild
	// Batched counts the slow-start events that ticked two flows or more,
	// and BatchedFills those whose one drain water-filled a component: the
	// fill that answers several moved caps at once.
	Batched      int
	BatchedFills int
}

type flowAnchor struct {
	rate, remaining         float64
	settledAt, completionAt time.Duration
}

func anchorOf(f *Flow) flowAnchor {
	return flowAnchor{f.rateBps, f.remaining, f.settledAt, f.completionAt}
}

func (a flowAnchor) same(b flowAnchor) bool {
	return math.Float64bits(a.rate) == math.Float64bits(b.rate) &&
		math.Float64bits(a.remaining) == math.Float64bits(b.remaining) &&
		a.settledAt == b.settledAt && a.completionAt == b.completionAt
}

// capBoundOracle holds the picture of every active flow as the last check
// (a drain's or an event's) left it.
type capBoundOracle struct {
	n   *Network
	rng *rand.Rand
	pre map[*Flow]flowAnchor
}

func (o *capBoundOracle) before() {
	clear(o.pre)
	for _, f := range o.n.Flows() {
		o.pre[f] = anchorOf(f)
	}
}

// watch runs check at the end of every drain of n and takes the picture
// the next one is held to. The first error sticks; unwatch stops it.
func (o *capBoundOracle) watch(check func() error) (firstErr *error, unwatch func()) {
	var err error
	o.n.drainHook = func() {
		if err == nil {
			err = check()
		}
		o.before()
	}
	return &err, func() { o.n.drainHook = nil }
}

// refill puts each flow of c whose rate the drain or event moved back as
// the last check found it (a flow started since, as StartFlow made it) and
// water-fills c from there at the current instant: the fill must arrive at
// the rates and the re-anchored progress production holds in got. A flow
// whose rate did not move must not have been re-anchored, bar the one
// re-anchoring the completion handler does by itself for a sub-byte residue.
func (o *capBoundOracle) refill(c *component, got []flowAnchor) error {
	now := o.n.engine.Now()
	for i, f := range c.flows {
		p, ok := o.pre[f]
		if !ok {
			p = flowAnchor{0, f.wireBytes, f.started, noCompletion}
		}
		if math.Float64bits(p.rate) != math.Float64bits(got[i].rate) {
			f.rateBps, f.remaining, f.settledAt, f.completionAt = p.rate, p.remaining, p.settledAt, p.completionAt
		} else if residue := got[i].settledAt == now && p.completionAt <= now; !p.same(got[i]) && !residue {
			return fmt.Errorf("flow %d re-anchored at an unchanged rate: %+v -> %+v", f.id, p, got[i])
		}
	}
	o.n.waterfill(c, now)
	for i, f := range c.flows {
		if want := anchorOf(f); !want.same(got[i]) {
			return fmt.Errorf("flow %d: production %+v, water-fill of %d flows %+v", f.id, got[i], len(c.flows), want)
		}
	}
	return nil
}

func anchorsOf(flows []*Flow) []flowAnchor {
	got := make([]flowAnchor, len(flows))
	for i, f := range flows {
		got[i] = anchorOf(f)
	}
	return got
}

// after checks the drain that just ran or the event that just fired: the
// partition and its certificates (certificateErr), then component by
// component (refill).
// One component in three also has its links read through UsedBps first —
// the others stay stale into the next event, merges and splits included —
// and a read must move no flow.
func (o *capBoundOracle) after(tally *StormTally) error {
	n := o.n
	if err := certificateErr(n); err != nil {
		return err
	}
	stats := n.pstats
	defer func() { n.pstats = stats }() // the checker's own fills are not the storm's
	for _, c := range n.comps {
		if c.gone {
			continue
		}
		tally.Components++
		if c.dirty || c.structDirty || c.mustFill {
			return fmt.Errorf("component %d left dirty by a drain", c.id)
		}
		if err := checkDemand(c); err != nil {
			return fmt.Errorf("component %d: %w", c.id, err)
		}
		got := anchorsOf(c.flows)
		read := o.rng.Intn(3) == 0
		used := make([]float64, len(c.links))
		if read && c.stale {
			tally.Rebuilds++
		}
		for i, l := range c.links {
			if read {
				used[i] = l.UsedBps()
			} else {
				used[i] = l.usedBps
			}
		}
		if read && c.stale {
			return fmt.Errorf("component %d still stale after its links were read", c.id)
		}
		for i, f := range c.flows {
			if !anchorOf(f).same(got[i]) {
				return fmt.Errorf("component %d flow %d: reading link usage moved it from %+v to %+v", c.id, f.id, got[i], anchorOf(f))
			}
		}
		if err := o.refill(c, got); err != nil {
			return fmt.Errorf("component %d (%d tight links) %w", c.id, c.tight, err)
		}
		for i, l := range c.links {
			if read && math.Float64bits(l.usedBps) != math.Float64bits(used[i]) {
				return fmt.Errorf("component %d link %s->%s UsedBps %v, water-fill %v", c.id, l.from, l.to, used[i], l.usedBps)
			}
			l.usedBps = used[i]
		}
	}
	return nil
}

// global checks the drain or event just done against the historical algorithm:
// one water-fill of every active flow, whatever the partition says. It must
// leave each flow where the partitioned allocator left it, bit for bit, and
// its allocation must be max-min fair in its own right (conservation). The
// partition and its certificates are checked first (certificateErr). The
// links' usage is put back as production had it, stale or not.
func (o *capBoundOracle) global() error {
	n := o.n
	if err := certificateErr(n); err != nil {
		return err
	}
	g := globalComp(n)
	stats, used := n.pstats, make([]float64, len(g.links))
	for i, l := range g.links {
		used[i] = l.usedBps
	}
	defer func() {
		for i, l := range g.links {
			l.usedBps = used[i]
		}
		n.pstats = stats
	}()
	if err := o.refill(g, anchorsOf(g.flows)); err != nil {
		return err
	}
	return conservation(n)
}

// StepGlobal steps n's engine to virtual time until (or dry) one event at a
// time, holding every drain and every event to the global water-fill.
//
// The comparison is bit for bit, and the global water-fill is not exact at
// one seam: when two components' round minima are unequal but within
// allocEps, it fixes a flow in the other component's round, and a share can
// come out one ulp off the partition's (333333.3333333334 against
// 333333.3333333333 on 1 Mb/s links; the decomposition proof in
// docs/PERFORMANCE.md). Equal capacities and flow counts make that common
// on small symmetric worlds, so FuzzNetsimOps (fuzz_test.go) refills each
// component on its own instead; the equivalence tests' seeded worlds do not
// reach the seam.
func StepGlobal(n *Network, until time.Duration) error {
	done := false
	if _, err := n.engine.Schedule(until, func(time.Duration) { done = true }); err != nil {
		return err
	}
	o := &capBoundOracle{n: n, pre: make(map[*Flow]flowAnchor)}
	drainErr, unwatch := o.watch(o.global)
	defer unwatch()
	for events := 1; !done; events++ {
		o.before()
		if !n.engine.Step() {
			break
		}
		err := *drainErr
		if err == nil {
			err = o.global()
		}
		if err != nil {
			return fmt.Errorf("event %d at %v: %w", events, n.engine.Now(), err)
		}
	}
	return nil
}

// checkDemand holds the bookkeeping to the premise of the drift bound: each
// link's incrementally kept demand is the sum of its flows' booked caps to
// within a billionth, its tight mark is what that demand says, and the
// component counts the marks.
func checkDemand(c *component) error {
	tight := 0
	for _, l := range c.links {
		sum := 0.0
		for _, f := range c.flows {
			for _, pl := range f.path {
				if pl == l {
					sum += l.bookable(f.capBps())
				}
			}
		}
		if math.Abs(l.demand-sum) > 1e-9*math.Max(sum, 1) {
			return fmt.Errorf("link %s->%s demand %v, its flows' caps sum to %v", l.from, l.to, l.demand, sum)
		}
		if want := !(l.demand <= l.EffectiveCapacity()*(1-headRoom)); l.tight != want {
			return fmt.Errorf("link %s->%s tight=%v, demand %v under capacity %v", l.from, l.to, l.tight, l.demand, l.EffectiveCapacity())
		}
		if l.tight {
			tight++
		}
	}
	if c.tight != tight {
		return fmt.Errorf("counts %d tight links, has %d", c.tight, tight)
	}
	return nil
}

// tiedCaps are application rate caps equal, one ulp apart, half an allocEps
// apart and two allocEps apart: in one band, or just out of it.
func tiedCaps(base float64) []float64 {
	return []float64{base, base, math.Nextafter(base, math.Inf(1)), base * (1 + allocEps/2), base * (1 + 2*allocEps), 2 * base}
}

// CapBoundStorm schedules ops random operations on n — StartFlow,
// CancelFlow, SetBackgroundLoad, SetLinkDown with its restore — between
// hosts, then steps the engine dry one event at a time with the oracle
// around every step, adding what it covered to tally.
func CapBoundStorm(n *Network, rng *rand.Rand, hosts []string, reg StormRegime, ops int, tally *StormTally) error {
	eng := n.engine
	var opErr error
	base := 1e4 * float64(1+rng.Intn(50)) // under the slowest link's capacity: ties decide, not links
	if reg.Tight && rng.Intn(2) == 0 {
		// No route has been asked for yet, so the delays can still move:
		// oracleNet's first group becomes a zero-RTT island.
		for _, l := range n.linkList {
			if strings.HasPrefix(l.from, "g0") && strings.HasPrefix(l.to, "g0") {
				l.cfg.Delay = 0
			}
		}
	}
	op := func(time.Duration) {
		switch k := rng.Intn(20); {
		case k < 12:
			src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
			if src == dst {
				return
			}
			opts := FlowOptions{WindowBytes: reg.WindowBytes, FailOnDown: rng.Intn(4) == 0}
			if reg.Tight {
				opts.WindowBytes = []int{8 << 10, 64 << 10, 1 << 20, 16 << 20}[rng.Intn(4)]
				if rng.Intn(6) > 0 {
					caps := tiedCaps(base)
					opts.RateCapBps = caps[rng.Intn(len(caps))]
				}
			}
			size := 256<<10 + rng.Int63n(4<<20)
			for s := 0; s < reg.Streams; s++ {
				// Unroutable pairs and FailOnDown starts into a fault are skipped.
				if _, err := n.StartFlow(src, dst, size, opts, nil); err != nil && !errors.Is(err, ErrNoRoute) && !errors.Is(err, ErrPathDown) {
					opErr = err
				}
			}
		case k < 14:
			if fl := n.Flows(); len(fl) > 0 { // id-sorted
				opErr = n.CancelFlow(fl[rng.Intn(len(fl))])
			}
		case k < 17:
			l := n.linkList[rng.Intn(len(n.linkList))]
			frac := 0.9 * rng.Float64()
			if reg.Tight && l.demand > 0 && l.demand < l.cfg.CapacityBps*0.9 {
				// Effective capacity times the margin lands within a few ulps
				// of the demand, on either side.
				frac = 1 - l.demand/(l.cfg.CapacityBps*(1-headRoom))
				for i := rng.Intn(5) - 2; i != 0; {
					if i > 0 {
						frac, i = math.Nextafter(frac, 1), i-1
					} else {
						frac, i = math.Nextafter(frac, 0), i+1
					}
				}
			}
			opErr = n.SetBackgroundLoad(l.from, l.to, frac)
		default:
			// A fault episode: the link fails now and comes back within a
			// quarter of the horizon, so components are not tight for good.
			l := n.linkList[rng.Intn(len(n.linkList))]
			if opErr = n.SetLinkDown(l.from, l.to, true); opErr != nil {
				return
			}
			_, opErr = eng.After(time.Duration(rng.Int63n(int64(reg.Horizon/4))), func(time.Duration) {
				opErr = n.SetLinkDown(l.from, l.to, false)
			})
		}
	}
	for i := 0; i < ops; i++ {
		if _, err := eng.Schedule(eng.Now()+time.Duration(rng.Int63n(int64(reg.Horizon))), op); err != nil {
			return err
		}
	}
	return stepChecked(n, rng, &opErr, tally)
}

// stepChecked steps n's engine dry one event at a time with the oracle
// around every step. opErr is where the scheduled operations report.
func stepChecked(n *Network, rng *rand.Rand, opErr *error, tally *StormTally) error {
	o := &capBoundOracle{n: n, rng: rng, pre: make(map[*Flow]flowAnchor)}
	drainErr, unwatch := o.watch(func() error { return o.after(tally) })
	defer unwatch()
	start := n.pstats
	for {
		o.before()
		pre := n.pstats
		if !n.engine.Step() {
			break
		}
		if *opErr != nil {
			return *opErr
		}
		tally.Events++
		if n.pstats.Ramps-pre.Ramps >= 2 {
			tally.Batched++
			if n.pstats.ComponentsDirtied-pre.ComponentsDirtied > n.pstats.CapBound-pre.CapBound {
				tally.BatchedFills++
			}
		}
		err := *drainErr
		if err == nil {
			err = o.after(tally)
		}
		if err != nil {
			return fmt.Errorf("event %d at %v: %w", tally.Events, n.engine.Now(), err)
		}
	}
	tally.Fast += n.pstats.CapBound - start.CapBound
	tally.Filled += (n.pstats.ComponentsDirtied - start.ComponentsDirtied) - (n.pstats.CapBound - start.CapBound)
	return nil
}

// TestCapBoundBandsAcrossMergeAndSplit is the one case the storms reach only
// every few tens of thousands of events: two flows a hair apart in cap, each
// alone in its component at its own cap, are joined by a bridging flow —
// now one round of the water-fill fixes both at the smaller cap — and parted
// again when the bridge leaves. Neither event moves a cap near theirs, so
// only the band check on merges and splits sends them to the water-fill.
func TestCapBoundBandsAcrossMergeAndSplit(t *testing.T) {
	eng, n := islandNet(t)
	const base = 1e6
	near := base * (1 + allocEps/2)
	var fA, fB, bridge *Flow
	var opErr error
	at := func(d time.Duration, fn func()) {
		t.Helper()
		if _, err := eng.Schedule(d, func(time.Duration) { fn() }); err != nil {
			t.Fatal(err)
		}
	}
	at(0, func() { fA, opErr = n.StartFlow("a1", "a3", 1<<30, FlowOptions{RateCapBps: base}, nil) })
	at(0, func() { fB, opErr = n.StartFlow("b1", "b3", 1<<30, FlowOptions{RateCapBps: near}, nil) })
	at(time.Second, func() {
		if fA.rateBps != base || fB.rateBps != near {
			t.Errorf("apart: rates %v and %v, want each flow's own cap %v and %v", fA.rateBps, fB.rateBps, base, near)
		}
		bridge, opErr = n.StartFlow("a1", "b3", 1<<30, FlowOptions{RateCapBps: 3 * base}, nil)
	})
	at(2*time.Second, func() {
		if fA.comp != fB.comp || fA.rateBps != base || fB.rateBps != base {
			t.Errorf("bridged: rates %v and %v, want both at the band's smaller cap %v", fA.rateBps, fB.rateBps, base)
		}
		opErr = n.CancelFlow(bridge)
	})
	at(3*time.Second, func() {
		if fA.comp == fB.comp || fA.rateBps != base || fB.rateBps != near {
			t.Errorf("parted: rates %v and %v, want each flow's own cap again", fA.rateBps, fB.rateBps)
		}
		if opErr = n.CancelFlow(fA); opErr == nil {
			opErr = n.CancelFlow(fB)
		}
	})
	var tally StormTally
	if err := stepChecked(n, rand.New(rand.NewSource(1)), &opErr, &tally); err != nil {
		t.Fatal(err)
	}
	if s := n.ReallocStats(); s.Merges == 0 || s.Splits == 0 || tally.Fast == 0 || tally.Filled != 3 {
		t.Fatalf("%d merges, %d splits, %d cap-bound and %d water-filled components; want the merge and the two sides of the split water-filled, the rest cap-bound",
			s.Merges, s.Splits, tally.Fast, tally.Filled)
	}
}

// OracleNet exposes the water-fill sweep's hand-made random network to the
// external cap-bound sweep, hosts flattened.
func OracleNet(t *testing.T, rng *rand.Rand) (*Network, []string) {
	n, groups := oracleNet(t, rng)
	var hosts []string
	for _, g := range groups {
		hosts = append(hosts, g...)
	}
	return n, hosts
}
