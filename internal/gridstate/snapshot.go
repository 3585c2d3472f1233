// Package gridstate is the snapshot plane between the monitoring
// substrates (NWS, MDS, sysstat) and the selection layer: an epoch-stamped,
// immutable view of every monitored host's three system factors plus the
// per-pair network forecasts, rebuilt from the live substrates whenever
// their published revisions (or the virtual clock) move.
//
// The paper's information server answers one candidate at a time, pulling
// NWS, MDS and sysstat on demand; under many simultaneous selection
// requests that pull-per-query pattern collapses (Zhang & Schopf measure
// exactly this for MDS2). The snapshot plane inverts the read path: the
// substrates version their state as they sample on the virtual clock, a
// Publisher folds those versions into one Snapshot per epoch, and any
// number of concurrent selectors score candidates against the pinned
// snapshot with plain, lock-free reads.
//
// Immutability contract: a *Snapshot is never mutated after Publish
// returns it. Concurrent readers need no synchronization; writers do not
// exist. The Publisher itself must be driven from the simulation
// goroutine (rebuilding queries the live substrates, which are
// single-goroutine by the engine's contract); the snapshots it hands out
// may then be shared freely.
package gridstate

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// HostPerf is one host's monitored performance at a snapshot instant: the
// cost model's three system factors plus the forecast inputs they were
// derived from, all as seen from the publisher's local host.
type HostPerf struct {
	// Host is the candidate replica host (node j in the cost model).
	Host string
	// Local is the observing host (node i).
	Local string
	// BandwidthMbps is the NWS-forecast achievable TCP throughput from
	// Host to Local.
	BandwidthMbps float64
	// TheoreticalMbps is the path's raw bottleneck line rate.
	TheoreticalMbps float64
	// BandwidthPercent is 100 * current/theoretical, clamped to [0, 100] —
	// the cost model's BW_P(i,j).
	BandwidthPercent float64
	// CPUIdlePercent is the host's idle CPU share in [0, 100] — CPU_P(j).
	CPUIdlePercent float64
	// IOIdlePercent is the host's idle disk share in [0, 100] — IO_P(j).
	IOIdlePercent float64
	// LatencyMs is the NWS-forecast round-trip time in milliseconds, 0
	// when no latency sensor covers the pair — the extra system factor
	// of the paper's future work #2 (core.LatencyAwareSelector).
	LatencyMs float64
	// At is the virtual time the record was built.
	At time.Duration
}

// hostEntry is one host's outcome in a snapshot: the performance record,
// or the error the live pull path produced for it at the snapshot instant.
type hostEntry struct {
	perf HostPerf
	err  error
}

// Snapshot is one immutable epoch of grid state: the outcome of building
// every tracked host's HostPerf at a single virtual instant. Hosts whose
// build failed carry their error, so consumers see the exact
// unmonitored/staleness semantics of the live path.
type Snapshot struct {
	epoch uint64
	at    time.Duration
	local string
	hosts map[string]hostEntry
	order []string
	// sourceAge is how long (virtual time) the substrates had published no
	// new revision when this snapshot was built; staleEpochs counts the
	// consecutive preceding epochs built without source movement. Both are
	// zero while the monitors are alive — they grow during a monitor
	// outage, which is how staleness becomes observable per epoch.
	sourceAge   time.Duration
	staleEpochs uint64
}

// Epoch returns the snapshot's monotonically increasing version number.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// At returns the virtual instant the snapshot was built.
func (s *Snapshot) At() time.Duration { return s.at }

// Local returns the observing host all pair measurements point at.
func (s *Snapshot) Local() string { return s.local }

// Hosts returns the tracked host names, sorted.
func (s *Snapshot) Hosts() []string {
	return append([]string(nil), s.order...)
}

// SourceAge returns how long the monitoring substrates had been silent
// (no revision movement) when the snapshot was built. Zero means at least
// one substrate reported since the previous epoch.
func (s *Snapshot) SourceAge() time.Duration { return s.sourceAge }

// StaleEpochs returns how many consecutive epochs before this one were
// built without any source movement. Zero means the grid state behind
// this snapshot is fresh.
func (s *Snapshot) StaleEpochs() uint64 { return s.staleEpochs }

// SourcesStale reports whether the substrates have been silent for longer
// than the given threshold — the snapshot-plane analogue of a monitoring
// outage alarm.
func (s *Snapshot) SourcesStale(threshold time.Duration) bool {
	return s.sourceAge > threshold
}

// ErrUntracked is returned by Lookup for hosts the snapshot does not
// cover; selection treats such hosts as unmonitored.
var ErrUntracked = errors.New("gridstate: host not tracked by snapshot")

// Lookup returns the host's performance record, the error the live build
// produced for it, or ErrUntracked when the snapshot does not cover it.
func (s *Snapshot) Lookup(host string) (HostPerf, error) {
	e, ok := s.hosts[host]
	if !ok {
		return HostPerf{}, fmt.Errorf("%w: %q (epoch %d)", ErrUntracked, host, s.epoch)
	}
	if e.err != nil {
		return HostPerf{}, e.err
	}
	return e.perf, nil
}

// Covers reports whether the snapshot tracks the host (regardless of
// whether its build succeeded).
func (s *Snapshot) Covers(host string) bool {
	_, ok := s.hosts[host]
	return ok
}

// sortedHosts copies and sorts a host list, rejecting empties and dupes.
func sortedHosts(hosts []string) ([]string, error) {
	out := append([]string(nil), hosts...)
	sort.Strings(out)
	for i, h := range out {
		if h == "" {
			return nil, errors.New("gridstate: empty host name")
		}
		if i > 0 && out[i-1] == h {
			return nil, fmt.Errorf("gridstate: duplicate host %q", h)
		}
	}
	return out, nil
}
