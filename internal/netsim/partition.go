package netsim

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"
)

// This file implements component-partitioned, incremental rate allocation.
//
// Active flows induce a partition of the link table: two links are in the
// same component when some chain of active flows connects them (each flow
// ties all links on its path together). Water-filling decomposes exactly
// over that partition — a flow's limit depends only on its own links'
// remaining capacity, which only flows of the same component consume — so
// a network event only needs to re-run the allocator over the components
// it touched. Untouched components keep their rates, their link accounting
// and their cached completion times bit-for-bit.
//
// The partition is maintained incrementally:
//
//   - StartFlow merges every component its path touches into one
//     (union by size over the component records, links re-pointed once).
//   - Flow removal cannot be handled incrementally in general (the flow
//     may have been the only bridge between two link groups), so removal
//     marks the component structurally dirty and the next processDirty
//     re-derives the partition of just that component with a scoped
//     union-find over its links — O(component), the same order as the
//     water-fill that must follow anyway.
//   - SetBackgroundLoad / SetLinkDown / slow-start ramp ticks mark only
//     the owning component dirty.
//
// Completion scheduling is per component: each component tracks the
// earliest completion among its flows, components are merged through one
// indexed min-heap keyed by (minAt, flow id), and the engine carries a
// single pending completion event for the heap top. An event therefore
// costs O(dirty component + log components), not O(world).
//
// Progress bookkeeping is anchored, not eagerly settled: a flow stores
// (remaining, settledAt) rewritten only when its rate actually changes,
// and remainingAt(now) projects forward with one multiply. This keeps a
// clean component's completion time exact no matter how many unrelated
// events fire in between — see docs/PERFORMANCE.md for why the previous
// whole-network settle() could not be cached.

// noCompletion is the completionAt sentinel for flows that cannot finish
// under their current rate (stalled or not yet allocated). It sorts after
// every real virtual time.
const noCompletion = time.Duration(math.MaxInt64)

// noMinID is the component minID sentinel when no flow has a completion.
const noMinID = int64(math.MaxInt64)

// component is one connected group of active flows and the links they
// occupy. Records are pooled on Network.compFree and addressed by dense id
// (Network.comps); linkComp maps every occupied link to its owner.
type component struct {
	id    int
	flows []*Flow // sorted by ascending flow id
	links []*Link // unique links occupied by the flows above

	// minAt/minID cache the earliest (completionAt, flow id) among flows;
	// heapIdx is the record's slot in Network.compHeap (-1 = not queued).
	minAt   time.Duration
	minID   int64
	heapIdx int

	// dirty marks the component for re-water-filling; structDirty
	// additionally forces a partition rebuild (a flow left, so the
	// component may have split or emptied). gone marks a freed record.
	dirty       bool
	structDirty bool
	gone        bool

	// tight counts the links whose demand breaks the headRoom margin.
	// mustFill is set, while the component waits in the dirty queue, by any
	// change whose outcome the cap-bound path cannot name. stale means the
	// last drain took that path, so the links' usedBps still describe the
	// fill before it; rebuildUsed clears it.
	tight    int
	mustFill bool
	stale    bool
}

// ReallocStats counts rate-allocation work the way RouteStats counts
// routing work, so benchmarks and the scale experiments can quantify the
// partitioned allocator: the by-cause counters say what asked for an
// allocation, ComponentsDirtied vs Components how much of the world each
// event touched and CapBound how often the answer needed no water-fill;
// Rounds/FlowsScanned/MaxRoundFlows describe the round structure of the
// water-fills that did run, FlowsEvaluated/LinkScans the work spent finding
// it.
type ReallocStats struct {
	// Events is the number of allocation passes (API events that drained
	// the dirty set, water-filling or not).
	Events uint64
	// Events by cause. Starts, RampFills (slow-start ticks whose window was
	// binding), Completions (completion instants and cancels) and
	// CapacityEvents (SetBackgroundLoad, SetLinkDown) add up to Events;
	// RampSkips are the slow-start ticks that provably moved no rate and
	// drained nothing.
	Starts, RampFills, RampSkips, Completions, CapacityEvents uint64
	// ComponentsDirtied is the cumulative number of components allocated
	// across all events, by either path; CapBound is how many of them the
	// cap-bound path answered without a water-fill, and Rebuilds how many
	// water-fills a read of a link's usage then ran to refresh it.
	ComponentsDirtied uint64
	CapBound          uint64
	Rebuilds          uint64
	// Rounds is the cumulative number of water-filling rounds — distinct
	// limits flows were fixed at, however each round was found. Like the
	// four counters below it counts the water-fills actually executed,
	// on-read rebuilds included: a cap-bound component adds nothing.
	Rounds uint64
	// FlowsScanned is the cumulative number of flows still unfixed at the
	// start of each executed round: the round structure in reference units,
	// what a scan of every unfixed flow per round evaluates.
	FlowsScanned uint64
	// FlowsEvaluated is the cumulative number of flow paths actually
	// walked or consumed by executed water-fills; LinkScans the number of
	// exact link-share scans.
	FlowsEvaluated uint64
	LinkScans      uint64
	// Merges counts component unions (StartFlow joining groups);
	// Splits counts components created by rebuild after a flow left.
	Merges uint64
	Splits uint64
	// Components is the number of live components at read time.
	Components int
	// MaxComponentFlows is the largest component (by flows) ever allocated,
	// by either path; MaxRoundFlows is the most flows unfixed at the start
	// of a single executed round (<= MaxComponentFlows by construction).
	MaxComponentFlows int
	MaxRoundFlows     int
}

// ReallocStats returns cumulative allocation-work counters.
func (n *Network) ReallocStats() ReallocStats {
	s := n.pstats
	s.Components = n.liveComps
	return s
}

// remainingAt projects the flow's anchored byte count to now. The anchor
// is rewritten only when the rate changes, so this is one multiply from
// the last rate change rather than a chain of per-event subtractions.
func (f *Flow) remainingAt(now time.Duration) float64 {
	if f.rateBps <= 0 || now <= f.settledAt {
		return f.remaining
	}
	rem := f.remaining - f.rateBps/8*(now-f.settledAt).Seconds()
	if rem < 0 {
		rem = 0
	}
	return rem
}

// setCompletionAt caches when the flow drains at its current rate, using
// the exact arithmetic the global scheduler used (truncating duration
// conversion, 1ns floor for forward progress). Must be called with the
// anchor freshly rewritten at now.
func (f *Flow) setCompletionAt(now time.Duration) {
	if f.rateBps <= 0 {
		f.completionAt = noCompletion
		return
	}
	secs := f.remaining * 8 / f.rateBps
	d := time.Duration(secs * float64(time.Second))
	if d <= 0 || math.IsNaN(secs) {
		d = 1 // guarantee forward progress despite rounding
	}
	f.completionAt = now + d
}

// markDirty queues c for the next processDirty drain.
func (n *Network) markDirty(c *component) {
	if c == nil || c.dirty {
		return
	}
	c.dirty = true
	n.dirtyComps = append(n.dirtyComps, c)
}

// markFill queues c for a real water-fill: the capacity under it moved, or
// the caller wants the full recompute.
func (n *Network) markFill(c *component) {
	c.mustFill = true
	n.markDirty(c)
}

// claimLink makes c the owner of link l.
func (n *Network) claimLink(c *component, l *Link) {
	n.linkComp[l.idx] = c.id
	c.links = append(c.links, l)
	if l.tight {
		c.tight++
	}
}

// newComp returns a fresh live component (pooled record when available)
// already queued in the completion heap with no completion.
func (n *Network) newComp() *component {
	var c *component
	if k := len(n.compFree); k > 0 {
		c = n.compFree[k-1]
		n.compFree[k-1] = nil
		n.compFree = n.compFree[:k-1]
	} else {
		c = &component{id: len(n.comps)}
		n.comps = append(n.comps, c)
	}
	c.flows = c.flows[:0]
	c.links = c.links[:0]
	c.minAt, c.minID = noCompletion, noMinID
	c.heapIdx = -1
	c.dirty, c.structDirty, c.gone = false, false, false
	c.tight, c.mustFill, c.stale = 0, false, false
	n.liveComps++
	n.compHeapPush(c)
	return c
}

// freeComp retires an emptied (or absorbed) component record.
func (n *Network) freeComp(c *component) {
	if c.heapIdx >= 0 {
		n.compHeapRemove(c)
	}
	for i := range c.flows {
		c.flows[i] = nil
	}
	for i := range c.links {
		c.links[i] = nil
	}
	c.flows = c.flows[:0]
	c.links = c.links[:0]
	c.gone = true
	n.liveComps--
	n.compFree = append(n.compFree, c)
}

// attachFlow inserts a just-started flow into the partition: all
// components its path touches merge into one, links not yet occupied join
// it, and the result is marked dirty.
func (n *Network) attachFlow(f *Flow) {
	var c *component
	if n.poolMode {
		// Test hook: one mega-component makes every event water-fill the
		// whole world — the reference global algorithm, on the same code.
		for _, lc := range n.comps {
			if !lc.gone {
				c = lc
				break
			}
		}
	} else {
		for _, l := range f.path {
			if cid := n.linkComp[l.idx]; cid >= 0 {
				lc := n.comps[cid]
				if c == nil {
					c = lc
				} else if lc != c {
					c = n.mergeComps(c, lc)
				}
			}
		}
	}
	if c == nil {
		c = n.newComp()
	}
	f.comp = c
	// Flow ids are monotonic, so appending keeps c.flows sorted.
	c.flows = append(c.flows, f)
	for _, l := range f.path {
		if n.linkComp[l.idx] != c.id {
			n.claimLink(c, l)
		}
	}
	n.markDirty(c)
}

// mergeComps unions two components (larger absorbs smaller): flows are
// merged preserving id order, the absorbed links are re-pointed, and the
// absorbed record is freed.
func (n *Network) mergeComps(a, b *component) *component {
	if len(b.flows) > len(a.flows) {
		a, b = b, a
	}
	n.pstats.Merges++
	for _, l := range b.links {
		n.claimLink(a, l)
	}
	for _, f := range b.flows {
		f.comp = a
	}
	// Merge the two id-sorted flow lists through the flow scratch buffer.
	fa := append(n.flowScratch[:0], a.flows...)
	fb := b.flows
	a.flows = a.flows[:0]
	i, j := 0, 0
	for i < len(fa) && j < len(fb) {
		if fa[i].id < fb[j].id {
			a.flows = append(a.flows, fa[i])
			i++
		} else {
			a.flows = append(a.flows, fb[j])
			j++
		}
	}
	a.flows = append(a.flows, fa[i:]...)
	a.flows = append(a.flows, fb[j:]...)
	for k := range fa {
		fa[k] = nil
	}
	n.flowScratch = fa[:0]
	// Flows of the two sides may now share a round of the water-fill.
	a.mustFill = a.mustFill || b.mustFill || a.tight > 0 || !n.bandFree(a.flows)
	n.freeComp(b)
	return a
}

// detachFlow removes f from its component. The component may have split
// (f could have been the only bridge), so it is marked structurally dirty
// and re-partitioned lazily by processDirty.
func (n *Network) detachFlow(f *Flow) {
	c := f.comp
	if c == nil {
		return
	}
	f.comp = nil
	j := sort.Search(len(c.flows), func(j int) bool { return c.flows[j].id >= f.id })
	if j < len(c.flows) && c.flows[j] == f {
		copy(c.flows[j:], c.flows[j+1:])
		c.flows[len(c.flows)-1] = nil
		c.flows = c.flows[:len(c.flows)-1]
	}
	c.structDirty = true
	n.markDirty(c)
}

// ufFind is the scoped union-find lookup with path compression. Parents
// live in the network-wide ufParent scratch, initialized by rebuildComp
// for exactly the links it is about to partition.
func (n *Network) ufFind(x int) int {
	r := x
	for n.ufParent[r] != r {
		r = n.ufParent[r]
	}
	for n.ufParent[x] != r {
		n.ufParent[x], x = r, n.ufParent[x]
	}
	return r
}

// rebuildComp re-derives the partition of one structurally dirty
// component: dead links (no flows left) are dropped, and the remaining
// flows are grouped by link-sharing with a union-find scoped to the
// component's own links. The first group (in flow-id order) reuses the
// record; every further group becomes a new dirty component. Flow-id
// iteration order makes the grouping deterministic and keeps every new
// flow list sorted.
func (n *Network) rebuildComp(c *component) {
	for _, l := range c.links {
		n.linkComp[l.idx] = -1
	}
	c.tight = 0 // the surviving links are claimed again below
	if len(c.flows) == 0 {
		n.freeComp(c)
		return
	}
	c.structDirty = false
	if n.poolMode {
		// Single mega-component: just refresh the occupied-link list.
		c.links = c.links[:0]
		for _, f := range c.flows {
			for _, l := range f.path {
				if n.linkComp[l.idx] != c.id {
					n.claimLink(c, l)
				}
			}
		}
		return
	}
	for _, f := range c.flows {
		for _, l := range f.path {
			n.ufParent[l.idx] = l.idx
		}
	}
	for _, f := range c.flows {
		r0 := n.ufFind(f.path[0].idx)
		for _, l := range f.path[1:] {
			r := n.ufFind(l.idx)
			if r != r0 {
				n.ufParent[r] = r0
			}
		}
	}
	oldFlows := append(n.flowScratch[:0], c.flows...)
	for i := range c.flows {
		c.flows[i] = nil
	}
	c.flows = c.flows[:0]
	c.links = c.links[:0]
	roots := n.rootScratch[:0]
	gcomps := n.groupScratch[:0]
	for _, f := range oldFlows {
		r := n.ufFind(f.path[0].idx)
		var gc *component
		for k, gr := range roots {
			if gr == r {
				gc = gcomps[k]
				break
			}
		}
		if gc == nil {
			if len(roots) == 0 {
				gc = c
			} else {
				if len(roots) == 1 {
					// The component splits: flows that shared a round of the
					// water-fill may land on different sides.
					c.mustFill = c.mustFill || !n.bandFree(oldFlows)
				}
				gc = n.newComp()
				gc.mustFill = c.mustFill
				n.pstats.Splits++
				n.markDirty(gc)
			}
			roots = append(roots, r)
			gcomps = append(gcomps, gc)
		}
		f.comp = gc
		gc.flows = append(gc.flows, f)
		for _, l := range f.path {
			if n.linkComp[l.idx] != gc.id {
				n.claimLink(gc, l)
			}
		}
	}
	for i := range oldFlows {
		oldFlows[i] = nil
	}
	for i := range gcomps {
		gcomps[i] = nil
	}
	n.flowScratch = oldFlows[:0]
	n.rootScratch = roots[:0]
	n.groupScratch = gcomps[:0]
}

// capEntry is one unfixed flow's cap in the water-fill's (cap, id) order.
// idx is the flow's position in the component's id-sorted flow list, so
// ordering by idx is ordering by flow id.
type capEntry struct {
	cap float64
	idx int32
}

func cmpCap(a, b capEntry) int {
	if a.cap != b.cap {
		if a.cap < b.cap {
			return -1
		}
		return 1
	}
	return int(a.idx) - int(b.idx)
}

// waterfill runs max-min fair water-filling with per-flow caps over one
// component. Each round fixes, in ascending id order, every unfixed flow
// whose limit min(cap, link shares) is within allocEps of the round's
// smallest; the rounds, their order and every float operation are those of
// the plain two-pass scan (referenceWaterfill in the test oracle), so rates
// are bit-identical — but a round bound by a flow cap is found without
// walking a path. Caps cannot change during a call, so they are snapshotted
// once (a fixed flow's entry becomes NaN, which no comparison selects), and
// linkLow is a lower bound on every fair share remCap/remCnt an unfixed flow
// can see: exact at entry and after an exact pass, lowered after each
// consumeShare of a cap-bound round, -Inf (unknown) after a link-bound one.
// While minLimit·(1+allocEps) < linkLow holds for the smallest unfixed cap,
// that cap is the round minimum and the flows to fix are exactly those with
// cap <= minLimit·(1+allocEps): found by scanning the snapshot in the first
// few rounds, and from the (cap, id) order of the still-unfixed flows once
// a component has taken more rounds than sorting it costs. Otherwise the
// round runs the reference passes. docs/PERFORMANCE.md has the argument.
// Flows whose rate actually changed (bitwise) are re-anchored at now;
// unchanged flows keep their anchor and cached completion time.
func (n *Network) waterfill(c *component, now time.Duration) {
	flows := c.flows
	k := len(flows)
	if cap(n.capOrder) < k {
		n.fillScratch = make([]float64, 3*2*k)
		n.capOrder = make([]capEntry, 0, 2*k)
	}
	// Previous rates, projected remaining bytes and the cap snapshot, by
	// flow position: three stripes of one scratch block.
	prev, rem, caps := n.fillScratch[:k], n.fillScratch[k:2*k], n.fillScratch[2*k:3*k]
	nanCap := false
	for i, f := range flows {
		prev[i] = f.rateBps
		rem[i] = f.remainingAt(now)
		f.fixed = false
		f.rateBps = 0
		caps[i] = f.capBps()
		nanCap = nanCap || caps[i] != caps[i]
	}
	linkLow := math.Inf(1)
	for _, l := range c.links {
		n.remCap[l.idx] = l.EffectiveCapacity()
		n.remCnt[l.idx] = l.nflows
		l.usedBps = 0
		linkLow = n.lowerShare(linkLow, l)
	}
	n.pstats.LinkScans++
	// With every flow unfixed the scan above covers exactly the reference
	// minimum's link terms — unless a NaN cap hides its flow's links from it.
	linkExact := !nanCap
	// A round's candidates cost one pass over caps to find; sorting costs
	// about log2(n) such passes, so it waits until that many rounds have run
	// (parallel streams of one transfer share a cap and never get there).
	sortAt := bits.Len(uint(len(flows)))
	order, next := n.capOrder[:0], 0 // once sorted, order[:next] are fixed
	unfixed := len(flows)
	for round := 0; unfixed > 0; round++ {
		n.pstats.Rounds++
		n.pstats.FlowsScanned += uint64(unfixed)
		if unfixed > n.pstats.MaxRoundFlows {
			n.pstats.MaxRoundFlows = unfixed
		}
		capMin := math.Inf(1) // smallest unfixed cap
		if round < sortAt {
			for _, v := range caps {
				if v < capMin {
					capMin = v
				}
			}
		} else {
			if round == sortAt {
				for i, v := range caps {
					if v == v {
						order = append(order, capEntry{v, int32(i)})
					}
				}
				slices.SortFunc(order, cmpCap)
			}
			for next < len(order) && caps[order[next].idx] != order[next].cap {
				next++
			}
			if next < len(order) {
				capMin = order[next].cap
			}
		}
		minLimit := capMin
		if !(max(minLimit, 0)*(1+allocEps) < linkLow) {
			// A link may bind, or the bound is stale: take the exact minimum.
			if linkExact {
				minLimit = min(capMin, linkLow) // neither is ever NaN
			} else {
				minLimit, linkLow = n.exactLimits(flows, caps)
			}
			if math.IsInf(minLimit, 1) {
				// No binding constraint anywhere (e.g. zero-RTT loss-free
				// path). Grant each flow its link share.
				minLimit = math.MaxFloat64
			}
		}
		if minLimit < 0 {
			minLimit = 0
		}
		linkExact = false
		thr := minLimit * (1 + allocEps)
		fixed := 0
		if thr < linkLow {
			// Cap-bound round: every share exceeds thr, so exactly the caps
			// <= thr are fixed, in id order.
			cand, live := order[:0], 0 // the order buffer is free until sorted
			if round < sortAt {
				for i, v := range caps {
					if v <= thr {
						cand = append(cand, capEntry{v, int32(i)})
					}
				}
				live = len(cand)
			} else {
				start := next
				for ; next < len(order) && order[next].cap <= thr; next++ {
					if e := order[next]; caps[e.idx] == e.cap {
						live++
					}
				}
				cand = order[start:next]
				slices.SortFunc(cand, func(a, b capEntry) int { return int(a.idx) - int(b.idx) })
			}
			last := live == unfixed // nothing left to keep a bound for
			for _, e := range cand {
				i := int(e.idx)
				if caps[i] != e.cap {
					continue // fixed by an earlier link-bound round
				}
				f := flows[i]
				n.pstats.FlowsEvaluated++
				f.rateBps = minLimit
				n.consumeShare(f)
				f.fixed = true
				caps[i] = math.NaN()
				fixed++
				if last {
					continue
				}
				for _, l := range f.path {
					linkLow = n.lowerShare(linkLow, l)
				}
				if linkLow <= thr {
					// Rounding dropped a share into the epsilon band (it rises
					// in exact arithmetic): finish the round the reference way.
					fixed += n.fixAtLimit(flows, caps, i+1, minLimit)
					linkLow = math.Inf(-1)
					break
				}
			}
		}
		if fixed == 0 {
			// Link-bound round: the reference fix pass. Shares move by more
			// than it tracks, so the bound is unknown until an exact pass.
			fixed = n.fixAtLimit(flows, caps, 0, minLimit)
			linkLow = math.Inf(-1)
			if fixed == 0 {
				// Defensive: a NaN limit is the only known trigger, but
				// never loop forever. Fix the stragglers at the round
				// minimum with the same link accounting as the normal path
				// so remCap/remCnt/usedBps stay consistent.
				for _, f := range flows {
					if !f.fixed {
						f.rateBps = minLimit
						n.consumeShare(f)
						f.fixed = true
					}
				}
				break
			}
		}
		unfixed -= fixed
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

// lowerShare folds the fair share link l offers its unfixed flows into the
// lower bound low.
func (n *Network) lowerShare(low float64, l *Link) float64 {
	if cnt := n.remCnt[l.idx]; cnt > 0 && n.remCap[l.idx]/float64(cnt) < low {
		low = n.remCap[l.idx] / float64(cnt)
	}
	return low
}

// exactLimits is the reference minimum pass of one round: the smallest
// limit min(cap, link shares) over the unfixed flows, and beside it the
// smallest share alone.
func (n *Network) exactLimits(flows []*Flow, caps []float64) (minLimit, linkLow float64) {
	n.pstats.LinkScans++
	minLimit, linkLow = math.Inf(1), math.Inf(1)
	for i, f := range flows {
		if f.fixed {
			continue
		}
		n.pstats.FlowsEvaluated++
		lim := caps[i]
		for _, l := range f.path {
			share := n.remCap[l.idx] / float64(n.remCnt[l.idx])
			if share < lim {
				lim = share
			}
			if share < linkLow {
				linkLow = share
			}
		}
		if lim < minLimit {
			minLimit = lim
		}
	}
	return minLimit, linkLow
}

// fixAtLimit is the reference fix pass of one round, from flow index from
// up: every unfixed flow whose live limit is within epsilon of minLimit is
// fixed at it, in ascending id order. It returns how many flows it fixed.
func (n *Network) fixAtLimit(flows []*Flow, caps []float64, from int, minLimit float64) int {
	fixed := 0
	for i := from; i < len(flows); i++ {
		f := flows[i]
		if f.fixed {
			continue
		}
		n.pstats.FlowsEvaluated++
		lim := caps[i]
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
			n.consumeShare(f)
			f.fixed = true
			caps[i] = math.NaN() // out of the cap-bound rounds' sight
			fixed++
		}
	}
	return fixed
}

// consumeShare books a just-fixed flow's rate against its links: remaining
// capacity and unfixed-flow counts for the next round, and the link's
// allocated total for the sensors.
func (n *Network) consumeShare(f *Flow) {
	for _, l := range f.path {
		n.remCap[l.idx] -= f.rateBps
		if n.remCap[l.idx] < 0 {
			n.remCap[l.idx] = 0
		}
		n.remCnt[l.idx]--
		l.usedBps += f.rateBps
	}
}

// updateCompMin recomputes the component's earliest completion and
// restores its heap position (pushing it back if it was popped).
func (n *Network) updateCompMin(c *component) {
	minAt, minID := noCompletion, noMinID
	// Flows are id-sorted, so strict < keeps the lowest id on ties.
	for _, f := range c.flows {
		if f.completionAt < minAt {
			minAt, minID = f.completionAt, f.id
		}
	}
	c.minAt, c.minID = minAt, minID
	if c.heapIdx >= 0 {
		n.compHeapFix(c.heapIdx)
	} else {
		n.compHeapPush(c)
	}
}

// retight re-evaluates link l against the headRoom margin after its demand
// or effective capacity moved, keeping the owning component's count in step.
func (n *Network) retight(l *Link) {
	tight := !(l.demand <= l.EffectiveCapacity()*(1-headRoom))
	if tight == l.tight {
		return
	}
	l.tight = tight
	if cid := n.linkComp[l.idx]; cid >= 0 {
		if tight {
			n.comps[cid].tight++
		} else {
			n.comps[cid].tight--
		}
	}
}

// bookable is the share of demand a flow with the given cap puts on l. A
// cap is booked at no more than the line rate: above it the link is tight
// whatever the sum says, and an infinite or NaN cap (a zero-RTT flow has
// one) would otherwise poison the sum until the link empties.
func (l *Link) bookable(cap float64) float64 {
	if cap < l.cfg.CapacityBps {
		return cap
	}
	return l.cfg.CapacityBps
}

// book moves flow f's share of its links' demand from oldCap to newCap; 0
// stands for a flow that is not there.
func (n *Network) book(f *Flow, oldCap, newCap float64) {
	if oldCap == newCap {
		return
	}
	for _, l := range f.path {
		l.demand += l.bookable(newCap) - l.bookable(oldCap)
		n.retight(l)
	}
}

// inBand reports whether caps x and y differ yet land in one round of the
// water-fill, by the comparison the water-fill itself makes: the larger is
// within allocEps of the smaller.
func inBand(x, y float64) bool {
	if y < x {
		x, y = y, x
	}
	return x < y && y <= x*(1+allocEps)
}

// bandFree reports whether no two of the flows hold unequal caps in one
// band: every round of a water-fill over them, with head-room on every
// link, then fixes flows of exactly one cap, however the flows are split
// into components or merged with another band-free set.
func (n *Network) bandFree(flows []*Flow) bool {
	caps := n.bandScratch[:0]
	for _, f := range flows {
		caps = append(caps, f.capBps())
	}
	n.bandScratch = caps
	slices.Sort(caps)
	for i := 1; i < len(caps); i++ {
		if inBand(caps[i-1], caps[i]) {
			return false
		}
	}
	return true
}

// capChanged books flow f's cap moving from oldCap to newCap (0: f is not
// there) before the change reaches the allocator, and decides whether the
// cap-bound path may answer for it. It may when every link of the component
// had head-room before the change — processDirty checks after — and no other
// flow holds an unequal cap in the band of either value: then a round of
// the water-fill fixes exactly the flows with one cap at that cap, before
// the change and after, and taking a flow out of its round or putting it
// into one of its own moves nobody else's (docs/PERFORMANCE.md, "The
// cap-bound path").
func (n *Network) capChanged(f *Flow, oldCap, newCap float64) {
	c := f.comp
	if c.tight > 0 {
		c.mustFill = true
	}
	if !c.mustFill {
		for _, g := range c.flows {
			if y := g.capBps(); g != f && (inBand(y, oldCap) || inBand(y, newCap)) {
				c.mustFill = true
				break
			}
		}
	}
	n.book(f, oldCap, newCap)
}

// capMoved is capChanged for a flow that stays: f started (oldCap is 0) or
// its slow-start window moved its cap. StartFlow and rampTick both drain
// before they return, so one event moves at most one cap.
func (n *Network) capMoved(f *Flow, oldCap float64) {
	n.capChanged(f, oldCap, f.capBps())
	n.moved = f
	n.markDirty(f.comp)
}

// setRate gives the flow the rate the water-fill would, with the water-
// fill's arithmetic: progress is projected under the old rate, and the
// anchor moves only if the rate did.
func (f *Flow) setRate(rate float64, now time.Duration) {
	rem := f.remainingAt(now)
	if rate == f.rateBps {
		return
	}
	f.rateBps = rate
	f.remaining = rem
	f.settledAt = now
	f.setCompletionAt(now)
}

// rebuildUsed runs the water-fill a cap-bound drain skipped, for the one
// thing it did not produce: the links' usedBps, a float sum in fix order.
// The water-fill is a function of the component's flows, caps and
// capacities, none of which moved since the drain, so it finds the rates
// already in place, re-anchors no flow and leaves usedBps as the eager
// fill would have.
func (n *Network) rebuildUsed(c *component) {
	if c.dirty {
		panic("netsim: link usage read inside an allocation pass")
	}
	n.pstats.Rebuilds++
	n.waterfill(c, n.engine.Now())
	c.stale = false
}

// processDirty drains the dirty set: structurally dirty components are
// re-partitioned (which may append fresh dirty components to the queue),
// every dirty component is allocated and re-keyed in the completion heap,
// and the single pending completion event is re-aimed at the heap top.
// Clean components are never visited. Allocation is a water-fill unless the
// cap-bound path applies — every link of the component keeps its head-room
// and capChanged vouched for each change since the last drain — in which
// case every rate is already the water-fill's answer except the moved
// flow's, which is its cap.
func (n *Network) processDirty() {
	now := n.engine.Now()
	n.pstats.Events++
	for i := 0; i < len(n.dirtyComps); i++ {
		c := n.dirtyComps[i]
		if c.gone || !c.dirty {
			continue // freed, or a duplicate entry already processed
		}
		if c.structDirty {
			n.rebuildComp(c)
			if c.gone {
				continue // emptied
			}
		}
		n.pstats.ComponentsDirtied++
		if len(c.flows) > n.pstats.MaxComponentFlows {
			n.pstats.MaxComponentFlows = len(c.flows)
		}
		if c.mustFill || c.tight > 0 {
			n.waterfill(c, now)
			c.mustFill, c.stale = false, false
		} else {
			n.pstats.CapBound++
			if f := n.moved; f != nil && f.comp == c {
				f.setRate(f.capBps(), now)
			}
			c.stale = true
		}
		n.updateCompMin(c)
		c.dirty = false
	}
	n.moved = nil
	for i := range n.dirtyComps {
		n.dirtyComps[i] = nil
	}
	n.dirtyComps = n.dirtyComps[:0]
	n.rescheduleNextCompletion()
}

// rescheduleNextCompletion re-aims the network's single completion event
// at the earliest completion across all components (the heap top). Like
// the global scheduler it replaces, it cancels and re-schedules on every
// allocation pass so the pending event always carries the freshest
// scheduling sequence number — event-order parity with the historical
// algorithm when completions tie with other events.
func (n *Network) rescheduleNextCompletion() {
	n.engine.Cancel(n.nextEv)
	if len(n.compHeap) == 0 {
		return
	}
	top := n.compHeap[0]
	if top.minAt == noCompletion {
		return
	}
	ev, err := n.engine.Schedule(top.minAt, n.completionFn)
	if err != nil {
		// minAt > now by construction, so Schedule can only fail on
		// virtual-clock overflow. A dropped completion event would stall
		// every active flow forever; fail loudly instead.
		panic("netsim: completion schedule failed: " + err.Error())
	}
	n.nextEv = ev
}

// compLess orders the completion heap by (minAt, owning flow id, comp id)
// — fully deterministic, no pointer or map order anywhere.
func compLess(a, b *component) bool {
	if a.minAt != b.minAt {
		return a.minAt < b.minAt
	}
	if a.minID != b.minID {
		return a.minID < b.minID
	}
	return a.id < b.id
}

func (n *Network) compHeapPush(c *component) {
	c.heapIdx = len(n.compHeap)
	n.compHeap = append(n.compHeap, c)
	n.compHeapUp(c.heapIdx)
}

func (n *Network) compHeapRemove(c *component) {
	i := c.heapIdx
	last := len(n.compHeap) - 1
	if i != last {
		n.compHeap[i] = n.compHeap[last]
		n.compHeap[i].heapIdx = i
	}
	n.compHeap[last] = nil
	n.compHeap = n.compHeap[:last]
	if i != last {
		n.compHeapFix(i)
	}
	c.heapIdx = -1
}

func (n *Network) compHeapFix(i int) {
	if !n.compHeapDown(i) {
		n.compHeapUp(i)
	}
}

func (n *Network) compHeapUp(i int) {
	h := n.compHeap
	for i > 0 {
		parent := (i - 1) / 2
		if !compLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].heapIdx, h[parent].heapIdx = i, parent
		i = parent
	}
}

func (n *Network) compHeapDown(i int) bool {
	h := n.compHeap
	moved := false
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < len(h) && compLess(h[left], h[smallest]) {
			smallest = left
		}
		if right < len(h) && compLess(h[right], h[smallest]) {
			smallest = right
		}
		if smallest == i {
			return moved
		}
		h[i], h[smallest] = h[smallest], h[i]
		h[i].heapIdx, h[smallest].heapIdx = i, smallest
		i = smallest
		moved = true
	}
}
