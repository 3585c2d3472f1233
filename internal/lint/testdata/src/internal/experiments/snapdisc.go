// Package experiments (testdata) exercises the snapshotdiscipline
// analyzer: snapshot handles stored beyond a single callback are
// flagged; plain locals and parameters are allowed.
package experiments

import "gridstate"

var lastSnap *gridstate.Snapshot

type cache struct {
	snap *gridstate.Snapshot
	view *gridstate.SnapshotView
}

// bad: a snapshot stored in a struct field outlives the instant that
// produced it.
func storeInField(c *cache, pub *gridstate.Publisher) {
	c.snap = pub.Current() // want `\*Snapshot stored into a struct field`
}

// bad: same for pinned views.
func storeViewInField(c *cache, srv *gridstate.SelectionServer) {
	c.view = srv.PinView() // want `\*SnapshotView stored into a struct field`
}

// bad: package-level storage serves stale epochs silently.
func storeInGlobal(pub *gridstate.Publisher) {
	lastSnap = pub.Current() // want `\*Snapshot stored into a package-level variable`
}

// bad: a composite literal field escapes just like an assignment.
func storeInLiteral(pub *gridstate.Publisher) *cache {
	s := pub.Current()
	return &cache{snap: s} // want `\*Snapshot stored into a struct literal field`
}

// good: locals and parameters are the intended shape — pass snapshots
// down, re-pin per callback.
func passDown(pub *gridstate.Publisher) uint64 {
	s := pub.Current()
	return epochOf(s)
}

func epochOf(s *gridstate.Snapshot) uint64 {
	if s == nil {
		return 0
	}
	return s.Epoch
}

// suppressed: a replay buffer that deliberately keeps historical epochs.
func record(c *cache, pub *gridstate.Publisher) {
	c.snap = pub.Current() //gridlint:snapshotdiscipline-ok replay buffer retains historical epochs by design
}
