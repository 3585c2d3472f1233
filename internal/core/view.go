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

// viewEntry is one host's memoized outcome under a pinned snapshot: the
// report and its cost-model score, or the error the snapshot build stored.
type viewEntry struct {
	report info.HostReport
	score  float64
	err    error
}

// SnapshotView scores candidates against one pinned grid-state snapshot.
// Every tracked host's report and score is memoized when the view is
// built, so ranking N logical files costs N catalog reads plus sorts — no
// substrate queries. A location finds its host's outcome through the
// server's id table, indexed by catalog host id. The view is immutable
// after PinView returns it; Rank and SelectBest are safe to call from any
// number of goroutines concurrently, provided the replica catalog is not
// mutated meanwhile and the configured selector is stateless
// (CostModelSelector and the other value-type selectors are;
// *RoundRobinSelector is not).
type SnapshotView struct {
	srv     *SelectionServer
	snap    *gridstate.Snapshot
	hosts   []string    // the tracked hosts, sorted; entries[i] is hosts[i]'s
	entries []viewEntry // one per tracked host
	slots   []int32     // the server's id table as of the pin (SelectionServer.slots)
}

// PinView pins the server's current grid-state snapshot (rebuilding it if
// the clock or a substrate moved) and returns a view scoring against it.
// Views are memoized per epoch: pinning twice without substrate movement
// returns the same view. Must run on the simulation goroutine; the
// returned view may then be shared freely.
//
// The publisher's tracked-host set is fixed, so the first pin reads it
// once. PinView is the only writer of the server's id table, and it never
// writes a table a view holds: the table only grows, when the catalog
// interns hosts after the last pin, and then into a copy.
func (s *SelectionServer) PinView(now time.Duration) *SnapshotView {
	snap := s.source.Snapshot(now)
	if v := s.view; v != nil && v.snap == snap {
		return v
	}
	if s.hosts == nil {
		s.hosts = snap.Hosts()
	}
	if late := s.catalog.HostNames(len(s.slots)); late != nil {
		slots := make([]int32, len(s.slots), len(s.slots)+len(late))
		copy(slots, s.slots)
		for _, h := range late {
			i, ok := slices.BinarySearch(s.hosts, h)
			if !ok {
				i = -1
			}
			slots = append(slots, int32(i+1))
		}
		s.slots = slots
	}
	entries := make([]viewEntry, len(s.hosts))
	for i, h := range s.hosts {
		e := &entries[i]
		if e.report, e.err = snap.Lookup(h); e.err == nil {
			e.score = Score(e.report, s.weights)
		}
	}
	v := &SnapshotView{srv: s, snap: snap, hosts: s.hosts, entries: entries, slots: s.slots}
	s.view = v
	return v
}

// entry returns the memoized outcome for a catalog host, or nil when the
// snapshot does not track it. A host the catalog interned after the pin
// is past the table's end and is found by name.
func (v *SnapshotView) entry(id int32, host string) *viewEntry {
	if int(id) < len(v.slots) {
		if i := v.slots[id]; i > 0 {
			return &v.entries[i-1]
		}
		return nil
	}
	if i, ok := slices.BinarySearch(v.hosts, host); ok {
		return &v.entries[i]
	}
	return nil
}

// Epoch returns the pinned snapshot's epoch.
func (v *SnapshotView) Epoch() uint64 { return v.snap.Epoch() }

// bestFirst is the candidate order every ranking and merge uses: score
// descending, ties toward the lexicographically smaller location.
func bestFirst(a, b Candidate) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return a.Location.Compare(b.Location)
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
	cands := make([]Candidate, 0, len(locs))
	if _, err := v.scan(logical, locs, &cands); err != nil {
		return nil, err
	}
	slices.SortStableFunc(cands, bestFirst)
	return cands, nil
}

// scan is the only loop turning catalog locations into scored candidates,
// on both tiers: the flat Rank hands it the file's catalog read, the
// hierarchy one region's part of its single read. It returns the bestFirst
// minimum. The catalog hands out distinct locations in ascending
// Location.Compare order, so the first of the highest score is the
// minimum: what a stable bestFirst sort would put at the head. all, when
// non-nil, also collects every candidate, in catalog order.
func (v *SnapshotView) scan(logical string, locs []replica.Tagged, all *[]Candidate) (best Candidate, err error) {
	var top *viewEntry
	for i := range locs {
		t := &locs[i]
		e := v.entry(t.HostID, t.Host)
		if e == nil {
			continue
		}
		if e.err != nil {
			if errors.Is(e.err, info.ErrNoData) {
				continue
			}
			return best, e.err
		}
		if all != nil {
			*all = append(*all, Candidate{Location: t.Location, Report: e.report, Score: e.score})
		}
		if top == nil || e.score > top.score {
			top, best.Location = e, t.Location
		}
	}
	if top == nil {
		return best, fmt.Errorf("%w: %q has %d replicas, none monitored", ErrNoUsableReplica, logical, len(locs))
	}
	best.Report, best.Score = top.report, top.score
	return best, nil
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
		if e := v.entry(t.HostID, t.Host); e != nil && e.err == nil {
			ranked = append(ranked, scored{host: t.Host, score: e.score})
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
