// Package placement adds dynamic replica placement on top of the replica
// catalog: policies watch the access stream and create (or retire)
// replicas through an Executor, so data migrates toward its consumers. The
// paper treats the replica set as given; this package implements the next
// step the data-grid literature of the era explored — threshold
// ("cascading") replication and popularity-weighted hot/warm/cold
// placement — and the repository's extension experiments and traffic plane
// quantify its effect.
package placement

import (
	"errors"
	"slices"
	"time"
)

// Policy is the dynamic-replication control surface: every placement
// strategy observes the access stream and may additionally run a
// periodic control step at epoch boundaries. The access path and the
// epoch path are deliberately split — OnAccess runs inline with every
// fetch and must stay cheap, while OnEpoch is where a policy may scan
// its accumulated statistics and issue replica creations or removals
// (the traffic plane calls it between simulation windows, when catalog
// mutation is safe).
type Policy interface {
	// OnAccess records one observed fetch.
	OnAccess(a Access) error
	// OnEpoch runs the policy's periodic control step at virtual time now.
	OnEpoch(now time.Duration) error
	// Stats reports the policy's cumulative counters.
	Stats() Stats
}

// Stats are a policy's cumulative counters, comparable across policies.
type Stats struct {
	// Accesses is how many fetches the policy observed.
	Accesses int
	// Replications is how many replica placements completed.
	Replications int
	// Removals is how many replicas the policy retired by epoch decision.
	Removals int
	// Hot, Warm, Cold are the class sizes of the most recent epoch for
	// classifying policies (zero for threshold/no-op policies).
	Hot, Warm, Cold int
}

// Executor applies a policy's placement decisions at region granularity.
// Decoupling the policies from any one grid lets the traffic plane execute
// decisions as simulated epoch-boundary transfers, the replication
// experiment as copies on the paper testbed, and tests against a fake grid
// without a simulation at all.
type Executor interface {
	// HoldingRegions returns the regions currently holding a replica of
	// logical, in deterministic (sorted) order.
	HoldingRegions(logical string) ([]string, error)
	// AddReplica places a new replica of logical in region, copying from
	// an existing holder; done fires when the copy completes (success or
	// failure). done is never nil. An error means the copy did not start,
	// and done will not fire.
	AddReplica(logical, region string, done func(error)) error
	// RemoveReplica retires logical's replica in region. Implementations
	// must refuse to orphan the last copy.
	RemoveReplica(logical, region string) error
}

// Access is one observed fetch, fed to the strategy by the application
// layer (typically from core.Application's fetch callback).
type Access struct {
	// Logical is the fetched file.
	Logical string
	// ServedFrom is the replica host that supplied the data.
	ServedFrom string
	// Client is the host that requested the data.
	Client string
	// At is the virtual time of the access.
	At time.Duration
}

// Threshold is the number of accesses from one region after which the
// threshold policy replicates the file there.
const Threshold = 3

// ThresholdPolicy implements threshold-based dynamic replication: when a
// region keeps pulling a file it does not hold, the file is copied into
// that region. It reacts to each access directly and keeps no epoch state.
type ThresholdPolicy struct {
	regionOf func(host string) string
	exec     Executor

	counts   map[[2]string]int // (logical, client region) → accesses since the last decision
	inFlight map[string]bool   // logical → an AddReplica copy is outstanding
	stats    Stats
}

var _ Policy = (*ThresholdPolicy)(nil)

// NewThresholdPolicy wires the policy to an executor; regionOf maps a
// client host to its region.
func NewThresholdPolicy(exec Executor, regionOf func(host string) string) (*ThresholdPolicy, error) {
	if exec == nil {
		return nil, errors.New("placement: nil executor")
	}
	if regionOf == nil {
		return nil, errors.New("placement: nil RegionOf")
	}
	return &ThresholdPolicy{
		regionOf: regionOf,
		exec:     exec,
		counts:   make(map[[2]string]int),
		inFlight: make(map[string]bool),
	}, nil
}

// OnAccess counts the fetch against the client's region. At the threshold
// the count resets if the region already holds the file; otherwise the
// file is copied there, unless a copy of it is already under way. A
// completed copy resets the count; a failed one leaves it, so the next
// access retries.
func (p *ThresholdPolicy) OnAccess(a Access) error {
	if a.Logical == "" || a.Client == "" {
		return errors.New("placement: access needs logical and client")
	}
	p.stats.Accesses++
	region := p.regionOf(a.Client)
	key := [2]string{a.Logical, region}
	p.counts[key]++
	if p.counts[key] < Threshold {
		return nil
	}
	holding, err := p.exec.HoldingRegions(a.Logical)
	if err != nil {
		return err
	}
	if slices.Contains(holding, region) {
		p.counts[key] = 0
		return nil
	}
	if p.inFlight[a.Logical] {
		return nil
	}
	p.inFlight[a.Logical] = true
	err = p.exec.AddReplica(a.Logical, region, func(err error) {
		delete(p.inFlight, a.Logical)
		if err == nil {
			p.stats.Replications++
			p.counts[key] = 0
		}
	})
	if err != nil {
		delete(p.inFlight, a.Logical)
	}
	return err
}

// OnEpoch does nothing: the threshold policy acts on each access.
func (p *ThresholdPolicy) OnEpoch(time.Duration) error { return nil }

// Stats reports the policy's cumulative counters.
func (p *ThresholdPolicy) Stats() Stats { return p.stats }

// NoReplication is the baseline strategy: it observes accesses and never
// replicates.
type NoReplication struct{}

var _ Policy = NoReplication{}

// OnAccess does nothing.
func (NoReplication) OnAccess(Access) error { return nil }

// OnEpoch does nothing.
func (NoReplication) OnEpoch(time.Duration) error { return nil }

// Stats reports all-zero counters: the baseline never acts.
func (NoReplication) Stats() Stats { return Stats{} }
