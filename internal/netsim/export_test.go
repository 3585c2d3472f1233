package netsim

import (
	"fmt"
	"slices"
	"time"
)

// Test-only entry points into the allocator and the router, and the
// accessors only this package's tests read.

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
	g := &component{id: -1, flows: n.Flows()}
	for _, l := range n.linkList {
		if l.nflows > 0 {
			g.links = append(g.links, l)
		}
	}
	return g
}

// From returns the name of the transmitting node.
func (l *Link) From() string { return l.from }

// To returns the name of the receiving node.
func (l *Link) To() string { return l.to }

// Capacity returns the raw line rate in bits per second.
func (l *Link) Capacity() float64 { return l.cfg.CapacityBps }

// RTT returns the round-trip time of the flow's path.
func (f *Flow) RTT() time.Duration { return f.rtt }

// HasNode reports whether the node exists.
func (n *Network) HasNode(name string) bool {
	_, ok := n.nodeIdx[name]
	return ok
}

// Nodes returns all node names, sorted.
func (n *Network) Nodes() []string {
	out := slices.Clone(n.nodeNames)
	slices.Sort(out)
	return out
}

// AddDirectedLink adds a one-direction link (an asymmetric path).
func (n *Network) AddDirectedLink(from, to string, cfg LinkConfig) error {
	return n.addDirected(from, to, cfg)
}

// SetBackgroundLoad sets the background traffic fraction on the directed
// link from->to and reallocates flow rates, as one step of a background
// walk does.
func (n *Network) SetBackgroundLoad(from, to string, frac float64) error {
	if frac < 0 || frac >= 1 {
		return fmt.Errorf("netsim: background load %v out of [0,1)", frac)
	}
	l, err := n.GetLink(from, to)
	if err != nil {
		return err
	}
	n.setBackgroundLoad(l, frac)
	return nil
}
