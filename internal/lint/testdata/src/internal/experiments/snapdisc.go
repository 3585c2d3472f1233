// Package experiments (testdata) exercises the snapshotdiscipline
// analyzer: per-iteration repinning in clock-stationary loops and
// snapshot handles stored beyond a single callback are flagged; pinning
// once per batch, pinning per epoch in clock-advancing loops, and plain
// locals are allowed.
package experiments

import "gridstate"

var lastSnap *gridstate.Snapshot

// bad: each iteration re-pulls the same instant's state.
func repinPerCandidate(pub *gridstate.Publisher, hosts []string) int {
	n := 0
	for range hosts {
		s := pub.Current() // want `Publisher\.Current inside a loop that never advances the clock`
		if s != nil {
			n++
		}
	}
	return n
}

// bad: per-candidate Rank re-validates the snapshot every call.
func rankPerCandidate(srv *gridstate.SelectionServer, hosts []string) float64 {
	best := -1.0
	for _, h := range hosts {
		if r := srv.Rank(h); r > best { // want `SelectionServer\.Rank inside a loop that never advances the clock`
			best = r
		}
	}
	return best
}

// good: pin once, score the whole batch against one epoch.
func pinOnce(srv *gridstate.SelectionServer, hosts []string) []float64 {
	view := srv.PinView()
	out := make([]float64, 0, len(hosts))
	for _, h := range hosts {
		out = append(out, view.Rank(h))
	}
	return out
}

// good: the loop advances the clock, so each iteration pins a genuinely
// new epoch — the ablation-sweep shape.
func perEpoch(eng *gridstate.Engine, pub *gridstate.Publisher, epochs int) int {
	seen := 0
	for i := 0; i < epochs; i++ {
		eng.RunUntil(int64(i) * 1000)
		if pub.Current() != nil {
			seen++
		}
	}
	return seen
}

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
