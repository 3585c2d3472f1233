package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/hpclab/datagrid/internal/gridstate"
	"github.com/hpclab/datagrid/internal/info"
	"github.com/hpclab/datagrid/internal/replica"
)

// SnapshotView scores candidates against one pinned grid-state snapshot.
// It holds only the snapshot and the server's id table: a location finds
// its host's record in the snapshot through the table, indexed by catalog
// host id, and is scored from that record when a rank scans it, so
// ranking N logical files costs N catalog reads plus sorts — no substrate
// queries — and pinning costs nothing per tracked host. The view is
// immutable after PinView returns it; Rank and SelectBest are safe to call
// from any number of goroutines concurrently, provided the replica catalog
// is not mutated meanwhile and the configured selector is stateless
// (CostModelSelector and the other value-type selectors are;
// *RoundRobinSelector is not).
type SnapshotView struct {
	srv   *SelectionServer
	snap  *gridstate.Snapshot
	slots []int32 // the server's id table as of the pin (SelectionServer.slots)
}

// PinView pins the server's current grid-state snapshot (rebuilding it if
// the clock or a substrate moved) and returns a view scoring against it.
// Views are memoized per epoch: pinning twice without substrate movement
// returns the same view. Must run on the simulation goroutine; the
// returned view may then be shared freely.
//
// PinView is the only writer of the server's id table, and it never
// writes a table a view holds: the table only grows, when the catalog
// interns hosts after the last pin, and then into a copy. The publisher's
// tracked-host set is fixed, so an index one snapshot gives holds in
// every later one.
func (s *SelectionServer) PinView(now time.Duration) *SnapshotView {
	snap := s.source.Snapshot(now)
	if v := s.view; v != nil && v.snap == snap {
		return v
	}
	if late := s.catalog.HostNames(len(s.slots)); late != nil {
		slots := make([]int32, len(s.slots), len(s.slots)+len(late))
		copy(slots, s.slots)
		for _, h := range late {
			i, ok := snap.Index(h)
			if !ok {
				i = -1
			}
			slots = append(slots, int32(i+1))
		}
		s.slots = slots
	}
	v := &SnapshotView{srv: s, snap: snap, slots: s.slots}
	s.view = v
	return v
}

// record returns a catalog host's record in the pinned snapshot, the error
// its build stored, or gridstate.ErrUntracked itself when the snapshot
// does not track the host. A host the catalog interned after the pin is
// past the table's end and is found by name.
func (v *SnapshotView) record(t *replica.Tagged) (*gridstate.HostPerf, error) {
	var i int
	var ok bool
	if int(t.HostID) < len(v.slots) {
		i, ok = int(v.slots[t.HostID])-1, v.slots[t.HostID] > 0
	} else {
		i, ok = v.snap.Index(t.Host)
	}
	if !ok {
		return nil, gridstate.ErrUntracked
	}
	return v.snap.Record(i)
}

// Epoch returns the pinned snapshot's epoch.
func (v *SnapshotView) Epoch() uint64 { return v.snap.Epoch() }

// ref is one usable location as scan sees it, before it becomes a
// Candidate: its host's record in the snapshot, the record's score, and
// the location's index in the slice scan walked. Rankings sort these
// 24-byte references and build each Candidate once, straight into the
// slice they return.
type ref struct {
	r     *gridstate.HostPerf
	score float64
	i     int
}

// bestFirst is the candidate order every ranking and merge uses: score
// descending, ties toward the lexicographically smaller location. a and b
// index locs.
func bestFirst(locs []replica.Tagged, a, b ref) int {
	if a.score != b.score {
		if a.score > b.score {
			return -1
		}
		return 1
	}
	return locs[a.i].Location.Compare(locs[b.i].Location)
}

// rankedCandidates sorts refs best-first and builds the candidates they
// name: the one allocation of a Rank on either tier. Each Report points
// at its host's record in the pinned snapshot.
func rankedCandidates(locs []replica.Tagged, refs []ref) []Candidate {
	slices.SortStableFunc(refs, func(a, b ref) int { return bestFirst(locs, a, b) })
	out := make([]Candidate, len(refs))
	for k, r := range refs {
		out[k] = Candidate{Location: locs[r.i].Location, Report: r.r, Score: r.score}
	}
	return out
}

// Rank scores every registered replica of the logical file against the
// pinned snapshot and returns the candidates sorted best-first. Replicas
// without monitoring data — ErrNoData in the snapshot, or a host the
// snapshot does not track — are skipped, and ErrNoUsableReplica is
// returned if none remain; any other error the snapshot build stored for
// a replica's host fails the rank.
func (v *SnapshotView) Rank(logical string) ([]Candidate, error) {
	var buf [8]replica.Tagged
	locs, err := v.srv.catalog.AppendTagged(buf[:0], logical)
	if err != nil {
		return nil, err
	}
	var refBuf [8]ref
	_, refs, err := v.scan(logical, locs, refBuf[:0])
	if err != nil {
		return nil, err
	}
	return rankedCandidates(locs, refs), nil
}

// scan is the only loop turning catalog locations into scored references,
// on both tiers: the flat Rank hands it the file's catalog read, the
// hierarchy one region's part of its single read. It returns the bestFirst
// minimum, indexing locs. The catalog hands out distinct locations in
// ascending Location.Compare order, so the first of the highest score is
// the minimum: what a stable bestFirst sort would put at the head. all,
// when non-nil, also collects every usable location, in catalog order; it
// comes back extended.
func (v *SnapshotView) scan(logical string, locs []replica.Tagged, all []ref) (best ref, _ []ref, err error) {
	for i := range locs {
		r, err := v.record(&locs[i])
		if err != nil {
			if err == gridstate.ErrUntracked || errors.Is(err, info.ErrNoData) {
				continue
			}
			return best, all, err
		}
		c := ref{r, Score(r, v.srv.weights), i}
		if all != nil {
			all = append(all, c)
		}
		if best.r == nil || c.score > best.score {
			best = c
		}
	}
	if best.r == nil {
		return best, all, fmt.Errorf("%w: %q has %d replicas, none monitored", ErrNoUsableReplica, logical, len(locs))
	}
	return best, all, nil
}

// RankHosts returns the hosts holding the logical file ordered best-first
// for a failover engine: cost-model-scored hosts first (ties toward the
// smaller name), then hosts without monitoring data in name order — when
// replicas keep failing, an unmonitored copy is still worth an attempt
// before giving up. alive, when non-nil, filters the candidates (hosts it
// rejects are dropped entirely). Must run on the simulation goroutine (it
// pins the current snapshot).
func (s *SelectionServer) RankHosts(logical string, now time.Duration, alive func(string) bool) ([]string, error) {
	var buf [8]replica.Tagged
	locs, err := s.catalog.AppendTagged(buf[:0], logical)
	if err != nil {
		return nil, err
	}
	slices.SortStableFunc(locs, func(a, b replica.Tagged) int { return strings.Compare(a.Host, b.Host) })
	v := s.PinView(now)
	type scored struct {
		host  string
		score float64
	}
	var ranked []scored
	var blind []string
	for i, t := range locs {
		if i > 0 && locs[i-1].Host == t.Host || alive != nil && !alive(t.Host) {
			continue
		}
		if r, err := v.record(&locs[i]); err == nil {
			ranked = append(ranked, scored{host: t.Host, score: Score(r, s.weights)})
			continue
		}
		blind = append(blind, t.Host)
	}
	slices.SortStableFunc(ranked, func(a, b scored) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		return strings.Compare(a.host, b.host)
	})
	out := make([]string, 0, len(ranked)+len(blind))
	for _, r := range ranked {
		out = append(out, r.host)
	}
	return append(out, blind...), nil // blind is in name order, as locs is
}
