// Package gridstate (testdata) stubs the snapshot plane's public
// surface: the snapshotdiscipline analyzer matches these types by name
// (Publisher, SelectionServer, Snapshot, SnapshotView, Engine), so the
// fixture packages can exercise it without importing the real module.
package gridstate

// Snapshot is an epoch-stamped immutable view of grid state.
type Snapshot struct {
	Epoch uint64
}

// SnapshotView is a pinned, validated snapshot handle.
type SnapshotView struct {
	Snap *Snapshot
}

func (v *SnapshotView) Rank(host string) float64 { return 0 }

// Publisher publishes snapshots; Current re-validates per call.
type Publisher struct{ cur *Snapshot }

func (p *Publisher) Current() *Snapshot { return p.cur }
func (p *Publisher) Snapshot(at int64) *Snapshot {
	return p.cur
}
func (p *Publisher) Publish(s *Snapshot) { p.cur = s }

// SelectionServer ranks replicas against a pinned snapshot.
type SelectionServer struct{}

func (s *SelectionServer) Rank(host string) float64         { return 0 }
func (s *SelectionServer) SelectBest(hosts []string) string { return "" }
func (s *SelectionServer) PinView() *SnapshotView           { return &SnapshotView{} }

// Engine is the virtual-clock stub; Run/RunUntil/Step advance time.
type Engine struct{ now int64 }

func (e *Engine) Now() int64        { return e.now }
func (e *Engine) Run()              {}
func (e *Engine) RunUntil(at int64) { e.now = at }
func (e *Engine) Step() bool        { return false }
