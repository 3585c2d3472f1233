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
// built, so ranking N logical files costs N catalog lookups plus sorts —
// no substrate queries. The view is immutable after PinView returns it;
// Rank and SelectBest are safe to call from any number of goroutines
// concurrently, provided the replica catalog is not mutated meanwhile and
// the configured selector is stateless (CostModelSelector and the other
// value-type selectors are; *RoundRobinSelector is not).
type SnapshotView struct {
	srv  *SelectionServer
	snap *gridstate.Snapshot
	memo map[string]*viewEntry // into one backing slice
}

// PinView pins the server's current grid-state snapshot (rebuilding it if
// the clock or a substrate moved) and returns a view scoring against it.
// Views are memoized per epoch: pinning twice without substrate movement
// returns the same view. Must run on the simulation goroutine; the
// returned view may then be shared freely.
func (s *SelectionServer) PinView(now time.Duration) *SnapshotView {
	snap := s.source.Snapshot(now)
	if v := s.view; v != nil && v.snap == snap {
		return v
	}
	hosts := snap.Hosts()
	entries := make([]viewEntry, len(hosts))
	memo := make(map[string]*viewEntry, len(hosts))
	for i, h := range hosts {
		e := &entries[i]
		if e.report, e.err = snap.Lookup(h); e.err == nil {
			e.score = Score(e.report, s.weights)
		}
		memo[h] = e
	}
	v := &SnapshotView{srv: s, snap: snap, memo: memo}
	s.view = v
	return v
}

// Snapshot returns the pinned snapshot backing this view.
func (v *SnapshotView) Snapshot() *gridstate.Snapshot { return v.snap }

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
	var cands []Candidate
	_, _, err := v.scan(logical, &cands)
	if err != nil {
		return nil, err
	}
	slices.SortStableFunc(cands, bestFirst)
	return cands, nil
}

// scan is the only loop turning catalog locations into scored candidates.
// It walks the file's locations in catalog order through a stack buffer
// and returns the bestFirst minimum and the number of locations scanned,
// unmonitored ones included — the hierarchy's scan accounting, also
// beside an error. The catalog hands out distinct locations in ascending
// Location.Compare order, so the first of the highest score is the
// minimum: what a stable bestFirst sort would put at the head. all, when
// non-nil, also collects every candidate, in catalog order.
func (v *SnapshotView) scan(logical string, all *[]Candidate) (best Candidate, scanned int, err error) {
	var buf [8]replica.Location
	locs, err := v.srv.catalog.AppendLocations(buf[:0], logical)
	if err != nil {
		return best, 0, err
	}
	if all != nil {
		*all = make([]Candidate, 0, len(locs))
	}
	var top *viewEntry
	for _, loc := range locs {
		e, ok := v.memo[loc.Host]
		if !ok {
			continue
		}
		if e.err != nil {
			if errors.Is(e.err, info.ErrNoData) {
				continue
			}
			return best, len(locs), e.err
		}
		if all != nil {
			*all = append(*all, Candidate{Location: loc, Report: e.report, Score: e.score})
		}
		if top == nil || e.score > top.score {
			top, best.Location = e, loc
		}
	}
	if top == nil {
		return best, len(locs), fmt.Errorf("%w: %q has %d replicas, none monitored", ErrNoUsableReplica, logical, len(locs))
	}
	best.Report, best.Score = top.report, top.score
	return best, len(locs), nil
}

// SelectBest returns the server's selector's choice among the view-ranked
// candidates of the logical file.
func (v *SnapshotView) SelectBest(logical string) (Candidate, error) {
	cands, err := v.Rank(logical)
	if err != nil {
		return Candidate{}, err
	}
	return pick(v.srv.selector, cands)
}

// RankHosts returns the hosts holding the logical file ordered best-first
// for a failover engine: cost-model-scored hosts first (ties toward the
// smaller name), then hosts without monitoring data in name order — when
// replicas keep failing, an unmonitored copy is still worth an attempt
// before giving up. alive, when non-nil, filters the candidates (hosts it
// rejects are dropped entirely). Must run on the simulation goroutine (it
// pins the current snapshot).
func (s *SelectionServer) RankHosts(logical string, now time.Duration, alive func(string) bool) ([]string, error) {
	hosts, err := s.catalog.HostsWith(logical)
	if err != nil {
		return nil, err
	}
	v := s.PinView(now)
	type scored struct {
		host  string
		score float64
	}
	var ranked []scored
	var blind []string
	for _, h := range hosts {
		if alive != nil && !alive(h) {
			continue
		}
		if e, ok := v.memo[h]; ok && e.err == nil {
			ranked = append(ranked, scored{host: h, score: e.score})
			continue
		}
		blind = append(blind, h)
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
	return append(out, blind...), nil // blind is name-sorted: HostsWith sorts
}
