package netsim

// Test-only entry points into the allocator and the router.

// RebuildRoutes runs rebuildAdjacency now, as the first Route after a
// topology change would, so the external tests can time and count a cold
// contraction on worlds this package cannot import.
func RebuildRoutes(n *Network) { n.rebuildAdjacency() }

// dropTrees forgets every swept tree and memoized path but keeps the
// contraction, so the next Route pays one cold sweep and one path.
func (n *Network) dropTrees() {
	clear(n.trees)
	clear(n.paths)
}

// reallocate water-fills every live component: the full-recompute entry
// point, for tests and benchmarks that measure or provoke the water-fill
// itself. Event paths mark only the components they touch, and answer most
// of those without one.
func (n *Network) reallocate() {
	for _, c := range n.comps {
		if !c.gone {
			n.markFill(c)
		}
	}
	n.processDirty()
}

// globalComp is one scratch component of every active flow and every
// occupied link: water-filling it is the historical whole-network
// algorithm, which the partitioned allocator must agree with bit for bit.
// It is no member of the partition (no link points at it).
func globalComp(n *Network) *component {
	g := &component{id: -1, flows: append([]*Flow(nil), n.active...)} // n.active is id-sorted
	for _, l := range n.linkList {
		if l.nflows > 0 {
			g.links = append(g.links, l)
		}
	}
	return g
}
