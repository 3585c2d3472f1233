// Package gridstate (testdata) stubs the snapshot plane's public
// surface: the snapshotdiscipline analyzer matches these types by name
// (Snapshot, SnapshotView), so the fixture packages can exercise it
// without importing the real module.
package gridstate

// Snapshot is an epoch-stamped immutable view of grid state.
type Snapshot struct {
	Epoch uint64
}

// SnapshotView is a pinned, validated snapshot handle.
type SnapshotView struct {
	Snap *Snapshot
}

// Publisher publishes snapshots.
type Publisher struct{ cur *Snapshot }

func (p *Publisher) Current() *Snapshot { return p.cur }

// SelectionServer ranks replicas against a pinned snapshot.
type SelectionServer struct{}

func (s *SelectionServer) PinView() *SnapshotView { return &SnapshotView{} }
