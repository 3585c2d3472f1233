// Package traffic is the open-loop request plane for the simulated data
// grid: per-region client populations emit millions of seeded,
// Zipf-skewed file requests against a generated planet-scale topology,
// every request is served through the hierarchical selection stack and
// the unified simxfer.Submit API, and a streaming collector reduces the
// result stream to latency quantiles, goodput and load skew without
// retaining per-request records.
//
// The plane closes the loop the paper leaves open: a placement.Policy
// watches the access stream and, at control-epoch boundaries, grows hot
// files and shrinks cold ones by scheduling real replication transfers
// on the same simulated network the client traffic competes with.
//
// Determinism is the design driver. A Run with a given Spec is
// byte-identical run over run because nothing depends on anything but
// the seed and the one engine's event order:
//
//   - Client arrival processes are per region, each with a private RNG;
//     they only append to per-region queues.
//   - The driver drains those queues at fixed dispatch barriers, in
//     region order, and schedules every transfer from there.
//   - Selection is epoch-pinned: grid-state snapshots are rebuilt only
//     at epoch boundaries while the engine is stopped, so every rank
//     within an epoch scores the same frozen snapshot.
package traffic

import (
	"errors"
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/simxfer"
	"github.com/hpclab/datagrid/internal/topo"
	"github.com/hpclab/datagrid/internal/workload"
)

// PolicyKind selects the dynamic-replication policy a Run closes the
// control loop with.
type PolicyKind int

const (
	// PolicyNone is the static baseline: the replica set placed at build
	// time never changes.
	PolicyNone PolicyKind = iota
	// PolicyPopularity runs placement.PopularityPolicy: weighted
	// hot/warm/cold classification per epoch, replica factors evolving
	// one step at a time.
	PolicyPopularity
)

func (k PolicyKind) String() string {
	switch k {
	case PolicyNone:
		return "none"
	case PolicyPopularity:
		return "popularity"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// Spec declares one traffic-plane run. The zero value is not runnable;
// every field without a stated default must be set.
type Spec struct {
	// Seed drives every random draw outside the topology itself: client
	// arrivals, file popularity, size mix, destination choice, fault
	// schedules and replica-landing hosts.
	Seed int64
	// Topology shapes the world; its Seed field is overridden with Seed.
	Topology topo.Spec
	// Files and Replicas parameterize the initial catalog placement.
	Files, Replicas int
	// FileBytes is the catalog size of each logical file — the cost of a
	// dynamic replication copy. Default 256 MB.
	FileBytes int64
	// RatePerMinute is each region's base client arrival rate before
	// diurnal modulation.
	RatePerMinute float64
	// Horizon is how long clients generate requests.
	Horizon time.Duration
	// DispatchInterval is the drain cadence: arrivals buffered per
	// region are submitted as transfers one interval later.
	// Default 10s.
	DispatchInterval time.Duration
	// Epoch is the control-loop cadence: snapshot republish and policy
	// OnEpoch. Must be a multiple of DispatchInterval. Default 5m.
	Epoch time.Duration

	// HotFiles and WarmFiles split the catalog into popularity classes
	// (fractions in (0,1); the remainder is cold). HotShare and
	// WarmShare are the request shares the classes attract.
	HotFiles, WarmFiles float64
	HotShare, WarmShare float64
	// ZipfS is the rank skew within each class; must be > 1.
	ZipfS float64

	// DiurnalAmplitude modulates each region's rate sinusoidally in
	// [base*(1-A), base*(1+A)]; must be in [0,1). Regions are phase
	// shifted by their index, so global load follows the sun. Zero
	// disables modulation.
	DiurnalAmplitude float64
	// DiurnalPeriod is the virtual day length. Default 24h.
	DiurnalPeriod time.Duration

	// SizesMB is the request size mix; each request draws uniformly.
	SizesMB []int64
	// Streams is the GridFTP parallel stream count per transfer.
	Streams int
	// TCPBufferBytes is the per-channel TCP window for every transfer
	// (client requests and replication copies alike). Zero keeps the
	// protocol's un-tuned 64 KiB default; planetary WAN paths want a
	// tuned window, or the window/RTT bound dominates every transfer.
	TCPBufferBytes int
	// Failover, when true, arms every request with a reselecting
	// failover policy; otherwise requests ride the legacy single-source
	// path and stall through faults.
	Failover bool
	// FaultIntensity scales the injected fault schedule; 0 is fault-free.
	FaultIntensity int

	// Policy picks the dynamic-replication control loop.
	Policy PolicyKind
	// MinReplicas and MaxReplicas bound PolicyPopularity's replica
	// factors. Defaults 1 and Topology.Regions.
	MinReplicas, MaxReplicas int
}

// withDefaults returns the spec with defaults applied, validating it.
func (s Spec) withDefaults() (Spec, error) {
	if s.FileBytes == 0 {
		s.FileBytes = 256 * workload.MB
	}
	if s.DispatchInterval == 0 {
		s.DispatchInterval = 10 * time.Second
	}
	if s.Epoch == 0 {
		s.Epoch = 5 * time.Minute
	}
	if s.DiurnalPeriod == 0 {
		s.DiurnalPeriod = 24 * time.Hour
	}
	if s.MinReplicas == 0 {
		s.MinReplicas = 1
	}
	if s.MaxReplicas == 0 {
		s.MaxReplicas = s.Topology.Regions
	}
	if s.Topology.Regions < 2 {
		return s, errors.New("traffic: need at least 2 regions (fault plans flap the links between them)")
	}
	if s.Files < 3 || s.Replicas <= 0 {
		return s, fmt.Errorf("traffic: need files >= 3 (one per class) and replicas > 0, got %d/%d", s.Files, s.Replicas)
	}
	if s.FileBytes <= 0 {
		return s, fmt.Errorf("traffic: FileBytes must be positive, got %d", s.FileBytes)
	}
	if s.RatePerMinute <= 0 {
		return s, fmt.Errorf("traffic: RatePerMinute must be positive, got %v", s.RatePerMinute)
	}
	if s.Horizon <= 0 {
		return s, fmt.Errorf("traffic: Horizon must be positive, got %v", s.Horizon)
	}
	if s.DispatchInterval <= 0 || s.Epoch <= 0 || s.Epoch%s.DispatchInterval != 0 {
		return s, fmt.Errorf("traffic: Epoch %v must be a positive multiple of DispatchInterval %v",
			s.Epoch, s.DispatchInterval)
	}
	if s.HotFiles <= 0 || s.WarmFiles <= 0 || s.HotFiles+s.WarmFiles >= 1 {
		return s, fmt.Errorf("traffic: file class fractions (%v,%v) must be positive and sum below 1",
			s.HotFiles, s.WarmFiles)
	}
	if s.HotShare <= 0 || s.WarmShare <= 0 || s.HotShare+s.WarmShare >= 1 {
		return s, fmt.Errorf("traffic: request shares (%v,%v) must be positive and sum below 1",
			s.HotShare, s.WarmShare)
	}
	if s.ZipfS <= 1 {
		return s, fmt.Errorf("traffic: ZipfS must be > 1, got %v", s.ZipfS)
	}
	if s.DiurnalAmplitude < 0 || s.DiurnalAmplitude >= 1 {
		return s, fmt.Errorf("traffic: DiurnalAmplitude must be in [0,1), got %v", s.DiurnalAmplitude)
	}
	if s.DiurnalPeriod <= 0 {
		return s, fmt.Errorf("traffic: DiurnalPeriod must be positive, got %v", s.DiurnalPeriod)
	}
	if len(s.SizesMB) == 0 {
		return s, errors.New("traffic: SizesMB must name at least one size")
	}
	for _, mb := range s.SizesMB {
		if mb <= 0 {
			return s, fmt.Errorf("traffic: request sizes must be positive, got %d MB", mb)
		}
	}
	if s.Streams < 0 {
		return s, fmt.Errorf("traffic: Streams must be non-negative, got %d", s.Streams)
	}
	if s.TCPBufferBytes < 0 {
		return s, fmt.Errorf("traffic: TCPBufferBytes must be non-negative, got %d", s.TCPBufferBytes)
	}
	if s.FaultIntensity < 0 {
		return s, fmt.Errorf("traffic: FaultIntensity must be non-negative, got %d", s.FaultIntensity)
	}
	switch s.Policy {
	case PolicyNone, PolicyPopularity:
	default:
		return s, fmt.Errorf("traffic: unknown policy %d", int(s.Policy))
	}
	if s.MinReplicas < 1 || s.MaxReplicas < s.MinReplicas {
		return s, fmt.Errorf("traffic: replica bounds [%d,%d] invalid", s.MinReplicas, s.MaxReplicas)
	}
	if s.Replicas > s.Topology.Regions {
		return s, fmt.Errorf("traffic: %d initial replicas exceed %d regions", s.Replicas, s.Topology.Regions)
	}
	return s, nil
}

// options is the transfer configuration every plane transfer uses:
// GridFTP with the spec's stream count and TCP window.
func (s Spec) options() simxfer.Options {
	o := simxfer.GridFTPOptions(s.Streams)
	o.TCPBufferBytes = s.TCPBufferBytes
	return o
}

// classBounds returns the [hot, warm) and [warm, cold) boundaries as
// file-index cutoffs. Every class holds at least one file.
func (s Spec) classBounds() (hotEnd, warmEnd int) {
	hotEnd = int(s.HotFiles * float64(s.Files))
	if hotEnd < 1 {
		hotEnd = 1
	}
	warmEnd = hotEnd + int(s.WarmFiles*float64(s.Files))
	if warmEnd <= hotEnd {
		warmEnd = hotEnd + 1
	}
	if warmEnd >= s.Files {
		warmEnd = s.Files - 1
	}
	if hotEnd >= warmEnd {
		hotEnd = warmEnd - 1
	}
	return hotEnd, warmEnd
}
