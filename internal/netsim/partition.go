package netsim

import (
	"math"
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
//   - Each component carries a spanning certificate: a spanning tree of
//     its link–flow incidence graph, in which every link's parent is the
//     flow that joined it to the component (Link.tree) and every flow's
//     parent is the link it joined through (Flow.up). StartFlow hangs the
//     flow under its first touched link and every further component it
//     merges, rerooted at its touched link, under the flow.
//   - Flow removal is settled on the certificate in O(path) when it
//     provably leaves the component whole: the flow had at most one live
//     tree neighbour, or a flow hanging directly under one of them crosses
//     them all and takes its place in the tree. Otherwise (the flow may
//     have been the only bridge between two link groups) removal marks the
//     component structurally dirty and the next processDirty re-derives the
//     partition of just that component, and its certificate, with a scoped
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
	links []*Link // unique links occupied by the flows above, in no read order

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
// Rounds/FlowsScanned/MaxRoundFlows describe the rounds of the water-fills
// that did run.
type ReallocStats struct {
	// Events is the number of allocation passes (API events that drained
	// the dirty set, water-filling or not).
	Events uint64
	// Work by cause: Starts, Ramps (slow-start ticks; the ticks of one
	// instant share one drain), Completions (completion instants and
	// cancels) and CapacityEvents (SetBackgroundLoad, SetLinkDown).
	Starts, Ramps, Completions, CapacityEvents uint64
	// ComponentsDirtied is the cumulative number of components allocated
	// across all events, by either path; CapBound is how many of them the
	// cap-bound path answered without a water-fill, and Rebuilds how many
	// water-fills a read of a link's usage then ran to refresh it.
	ComponentsDirtied uint64
	CapBound          uint64
	Rebuilds          uint64
	// Rounds is the cumulative number of water-filling rounds — distinct
	// limits flows were fixed at. Like FlowsScanned and MaxRoundFlows it
	// counts the water-fills actually executed, on-read rebuilds included:
	// a cap-bound component adds nothing.
	Rounds uint64
	// FlowsScanned is the cumulative number of flows still unfixed at the
	// start of each executed round, each of which the round's two passes
	// walk.
	FlowsScanned uint64
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
	l.slot = int32(len(c.links))
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
// it, and the result is marked dirty. The flow hangs in the certificate
// under its first touched link, every further component it merges is
// rerooted at its touched link and hung under the flow, and the flow owns
// the links new to the component.
func (n *Network) attachFlow(f *Flow) {
	// Invariant: StartFlow runs between allocation passes, so no component
	// its path touches waits for a rebuild and every certificate it joins
	// spans its component. mergeComps carries structDirty all the same: a
	// rebuild re-derives the certificate from the flows alone.
	var c *component
	f.up = -1
	for _, l := range f.path {
		cid := n.linkComp[l.idx]
		if cid < 0 {
			continue
		}
		lc := n.comps[cid]
		if c == nil {
			c = lc
			f.up = int32(l.idx)
		} else if lc != c {
			n.reroot(l)
			l.tree = f
			c = n.mergeComps(c, lc)
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
			l.tree = f
		}
	}
	n.markDirty(c)
}

// reroot makes link l the root of its certificate tree by reversing the
// parent chain above it, O(depth). The caller hangs l under a new parent.
func (n *Network) reroot(l *Link) {
	x, g := l, l.tree
	l.tree = nil
	for g != nil {
		up := g.up
		g.up = int32(x.idx)
		if up < 0 {
			return
		}
		y := n.linkList[up]
		g, y.tree = y.tree, g
		x = y
	}
}

// mergeComps unions two components (larger absorbs smaller): flows are
// merged preserving id order, the absorbed links are re-pointed, and the
// absorbed record is freed. A pending rebuild of either side is the union's.
func (n *Network) mergeComps(a, b *component) *component {
	if len(b.flows) > len(a.flows) {
		a, b = b, a
	}
	n.pstats.Merges++
	a.structDirty = a.structDirty || b.structDirty
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

// detachFlow removes f from its component. When the certificate shows the
// component stays whole, the links f leaves empty drop out of it at once.
// Otherwise the component may have split or emptied (f could have been the
// only bridge, or the last flow), so it is marked structurally dirty and
// re-partitioned lazily by processDirty.
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
	n.markDirty(c)
	if c.structDirty || len(c.flows) == 0 || !n.certify(c, f) {
		c.structDirty = true
		return
	}
	for _, l := range f.path {
		if l.nflows == 0 {
			n.dropLink(c, l)
		}
	}
}

// certify settles f's departure on c's certificate, or reports that it
// cannot. f's live tree neighbours are its parent link and the links it
// owns that still carry flows; the links it leaves empty are leaves under
// it. A parent link that empties with f was a root link only f crossed, so
// f's subtrees are all that is left and f stands as the root. With one
// live neighbour, removing f leaves the tree connected (if f was the root,
// that link becomes the root). With more, a flow g hanging directly under
// one of them that crosses them all takes f's place: g's edge to its
// parent survives as one of the new edges, so each subtree f held hangs
// under g and g under f's parent. A g deeper down could be an ancestor of
// f's parent link, and hanging it there would close a cycle.
func (n *Network) certify(c *component, f *Flow) bool {
	up := f.up
	var parent *Link
	live := 0
	if up >= 0 {
		if parent = n.linkList[up]; parent.nflows > 0 {
			live++
		} else {
			parent, up = nil, -1
		}
	}
	var owned *Link
	for _, l := range f.path {
		if l.tree == f && l.nflows > 0 {
			live++
			owned = l
		}
	}
	if live <= 1 {
		if parent == nil && owned != nil {
			owned.tree = nil
		}
		return live == 1
	}
	for _, g := range c.flows {
		if g.up < 0 {
			continue
		}
		if u := n.linkList[g.up]; u != parent && u.tree != f {
			continue
		}
		hits := 0
		for _, l := range g.path {
			if l == parent || l.tree == f {
				hits++
			}
		}
		if hits < live {
			continue
		}
		g.up = up
		for _, l := range f.path {
			if l.tree == f && l.nflows > 0 {
				l.tree = g
			}
		}
		return true
	}
	return false
}

// dropLink takes a link its last flow left out of a component that stays
// whole, swapping the list's last link into its slot.
func (n *Network) dropLink(c *component, l *Link) {
	last := len(c.links) - 1
	m := c.links[last]
	c.links[l.slot] = m
	m.slot = l.slot
	c.links[last] = nil
	c.links = c.links[:last]
	n.linkComp[l.idx] = -1
	l.tree = nil
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
		l.tree = nil
	}
	c.tight = 0 // the surviving links are claimed again below
	if len(c.flows) == 0 {
		n.freeComp(c)
		return
	}
	c.structDirty = false
	// The union pass derives each group's certificate as attachFlow would,
	// youngest flow first: a link seen first is the flow's own (and its
	// union-find entry starts there), the first link already seen is the
	// flow's parent, and every further group it bridges is rerooted at its
	// touched link and hung under the flow. Younger flows tend to end later,
	// so the links go to the flows likely to outlive their neighbours, and
	// more departures find themselves leaves. The order of this pass moves
	// no group: the grouping below walks flow-id order.
	for i := len(c.flows) - 1; i >= 0; i-- {
		f := c.flows[i]
		f.up = -1
		r0 := -1
		for _, l := range f.path {
			if l.tree == nil {
				l.tree = f
				if r0 < 0 {
					r0 = l.idx
				}
				n.ufParent[l.idx] = r0
				continue
			}
			r := n.ufFind(l.idx)
			switch {
			case f.up < 0:
				f.up = int32(l.idx)
				if r0 >= 0 && r0 != r {
					n.ufParent[r0] = r
				}
				r0 = r
			case r != r0:
				n.reroot(l)
				l.tree = f
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

// waterfill runs max-min fair water-filling with per-flow caps over one
// component, in plain two-pass rounds: every round walks every unfixed
// flow's path once to find the smallest limit min(cap, link shares), and
// once more to fix, in ascending id order, the flows whose live limit is
// within allocEps of it. Most events never get here — processDirty's
// cap-bound path answers them — and the fills that remain are small
// (docs/PERFORMANCE.md, "One plain water-fill"). Flows whose rate actually
// changed (bitwise) are re-anchored at now; unchanged flows keep their
// anchor and cached completion time.
func (n *Network) waterfill(c *component, now time.Duration) {
	flows := c.flows
	k := len(flows)
	if len(n.fillScratch) < 2*k {
		n.fillScratch = make([]float64, 4*k) // twice the need: room to grow
	}
	// Previous rates and projected remaining bytes, by flow position.
	prev, rem := n.fillScratch[:k], n.fillScratch[k:2*k]
	for i, f := range flows {
		prev[i] = f.rateBps
		rem[i] = f.remainingAt(now)
		f.fixed = false
		f.rateBps = 0
	}
	for _, l := range c.links {
		n.remCap[l.idx] = l.effective()
		n.remCnt[l.idx] = l.nflows
		l.usedBps = 0
	}
	for unfixed := k; unfixed > 0; {
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
			if lim := n.limit(f); lim < minLimit {
				minLimit = lim
			}
		}
		if math.IsInf(minLimit, 1) {
			// No binding constraint anywhere (e.g. zero-RTT loss-free
			// path). Grant each flow its link share.
			minLimit = math.MaxFloat64
		}
		if minLimit < 0 {
			minLimit = 0
		}
		fixed := 0
		for _, f := range flows {
			if f.fixed {
				continue
			}
			if lim := n.limit(f); lim <= minLimit*(1+allocEps) {
				f.rateBps = minLimit
				if f.rateBps == math.MaxFloat64 {
					f.rateBps = lim
				}
				n.consumeShare(f)
				f.fixed = true
				fixed++
			}
		}
		if fixed == 0 {
			// Defensive: a NaN limit is the only known trigger, but never
			// loop forever. Fix the stragglers at the round minimum with
			// the same link accounting as the normal path so
			// remCap/remCnt/usedBps stay consistent.
			for _, f := range flows {
				if !f.fixed {
					f.rateBps = minLimit
					n.consumeShare(f)
					f.fixed = true
				}
			}
			break
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

// limit is what flow f could be fixed at right now: its cap or the fair
// share remCap/remCnt of the scarcest link on its path, whichever is less.
func (n *Network) limit(f *Flow) float64 {
	lim := f.capBps()
	for _, l := range f.path {
		if share := n.remCap[l.idx] / float64(n.remCnt[l.idx]); share < lim {
			lim = share
		}
	}
	return lim
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
	tight := !(l.demand <= l.effective()*(1-headRoom))
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
// its slow-start window moved its cap. StartFlow drains before it returns;
// a ramp batch drains once after all its ticks, so one drain can find
// several moved caps, each tested by capChanged against the caps already
// booked.
func (n *Network) capMoved(f *Flow, oldCap float64) {
	n.capChanged(f, oldCap, f.capBps())
	n.moved = append(n.moved, f)
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
		// Invariant: link usage is read between allocation passes only.
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
			for _, f := range n.moved {
				if f.comp == c {
					f.setRate(f.capBps(), now)
				}
			}
			c.stale = true
		}
		n.updateCompMin(c)
		c.dirty = false
	}
	clear(n.moved)
	n.moved = n.moved[:0]
	for i := range n.dirtyComps {
		n.dirtyComps[i] = nil
	}
	n.dirtyComps = n.dirtyComps[:0]
	n.rescheduleNextCompletion()
	if n.drainHook != nil {
		n.drainHook()
	}
}

// rescheduleNextCompletion re-aims the network's single completion event
// at the earliest completion across all components (the heap top). Like
// the global scheduler it replaces, it cancels and re-schedules on every
// allocation pass so the pending event always carries the freshest
// scheduling sequence number — event-order parity with the historical
// algorithm when completions tie with other events. rampMark follows the
// schedule, so the open ramp batch stays joinable.
func (n *Network) rescheduleNextCompletion() {
	n.engine.Cancel(n.nextEv)
	if len(n.compHeap) == 0 {
		return
	}
	top := n.compHeap[0]
	if top.minAt == noCompletion {
		return
	}
	ev, err := n.engine.ScheduleHandler(top.minAt, (*completion)(n))
	if err != nil {
		// Invariant: minAt > now, so only a virtual-clock overflow fails.
		// A dropped completion event would stall every active flow forever.
		panic("netsim: completion schedule failed: " + err.Error())
	}
	n.nextEv = ev
	n.rampMark++
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
