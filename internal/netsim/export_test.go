package netsim

// Test-only hooks for the global-vs-partitioned equivalence suite.

// SetPoolMode switches the partition maintenance into a single
// mega-component: every flow joins one component, so every event
// water-fills the whole world — the historical global algorithm running
// on the partitioned machinery. Must be called before any flow starts.
func (n *Network) SetPoolMode(pool bool) { n.poolMode = pool }

// PoolMode reports whether the network runs the single-component
// reference algorithm.
func (n *Network) PoolMode() bool { return n.poolMode }

// Reallocate water-fills every live component: the full-recompute entry
// point, for tests that measure the water-fill itself now that most events
// are answered without one.
func (n *Network) Reallocate() { n.reallocate() }
