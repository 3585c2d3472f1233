// Package core implements the paper's primary contribution: the replica
// selection cost model (§3.3) and the replica selection server that applies
// it (§3.1, Fig. 1), together with the baseline selectors used for
// comparison and the client-side application pipeline.
//
// The cost model scores a candidate replica host j, as seen from the local
// host i, as
//
//	Score(i→j) = BW_P(i→j)·BW_W + CPU_P(j)·CPU_W + IO_P(j)·IO_W
//
// where BW_P is the percentage of current to theoretical bandwidth on the
// path j→i, CPU_P is j's idle-CPU percentage, IO_P is j's idle-I/O
// percentage, and the three weights are set by the Data Grid administrator
// (the paper uses 80/10/10).
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/hpclab/datagrid/internal/gridstate"
	"github.com/hpclab/datagrid/internal/replica"
)

// Weights are the administrator-chosen factor weights of the cost model.
// They are fractions (0.8, not 80); Normalize scales any positive vector.
type Weights struct {
	Bandwidth float64
	CPU       float64
	IO        float64
}

// PaperWeights are the weights the paper settles on after measurement:
// bandwidth dominates at 80%, CPU and I/O each contribute 10% (§3.3).
var PaperWeights = Weights{Bandwidth: 0.8, CPU: 0.1, IO: 0.1}

// Validate checks the weights are non-negative and not all zero.
func (w Weights) Validate() error {
	if w.Bandwidth < 0 || w.CPU < 0 || w.IO < 0 {
		return fmt.Errorf("core: negative weight in %+v", w)
	}
	if w.Bandwidth+w.CPU+w.IO == 0 {
		return errors.New("core: all weights zero")
	}
	return nil
}

// Score applies formula (1) to an information-server report. The result is
// in [0, 100] for normalized weights; higher is better.
func Score(r gridstate.HostPerf, w Weights) float64 {
	return r.BandwidthPercent*w.Bandwidth + r.CPUIdlePercent*w.CPU + r.IOIdlePercent*w.IO
}

// Candidate is one scored replica location.
type Candidate struct {
	Location replica.Location
	// Report is the host's record in the pinned SnapshotView that ranked
	// the candidate: the view's memoized copy, shared with every other
	// candidate of the host under that view. The view never changes it, so
	// it may be read from any goroutine, but it is read-only, and it keeps
	// the view's memo alive as long as the candidate is held. nil in a
	// local hit's FetchResult.Chosen, which no selection ranked.
	Report *gridstate.HostPerf
	Score  float64
}

// Selector picks one of the scored candidates. Implementations include the
// cost model itself and the baselines used in the ablation benchmarks.
type Selector interface {
	// Name identifies the selection policy.
	Name() string
	// Select returns the index of the chosen candidate.
	Select(cands []Candidate) (int, error)
}

// ErrNoCandidates is returned when selection is attempted over an empty set.
var ErrNoCandidates = errors.New("core: no candidates")

// CostModelSelector picks the candidate with the highest cost-model score.
type CostModelSelector struct {
	// Weights used for scoring; zero value is invalid — use PaperWeights.
	Weights Weights
}

// Name returns the policy name.
func (s CostModelSelector) Name() string { return "cost-model" }

// Select picks the highest-scoring candidate (ties break toward the
// earlier, i.e. lexicographically smaller, location for determinism).
func (s CostModelSelector) Select(cands []Candidate) (int, error) {
	if len(cands) == 0 {
		return 0, ErrNoCandidates
	}
	if err := s.Weights.Validate(); err != nil {
		return 0, err
	}
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[best].Score {
			best = i
		}
	}
	return best, nil
}

// RandomSelector picks uniformly at random — the "no information" baseline.
type RandomSelector struct {
	rng *rand.Rand
}

// NewRandomSelector returns a seeded random selector.
func NewRandomSelector(seed int64) *RandomSelector {
	return &RandomSelector{rng: rand.New(rand.NewSource(seed))}
}

// Name returns the policy name.
func (s *RandomSelector) Name() string { return "random" }

// Select picks a uniformly random candidate.
func (s *RandomSelector) Select(cands []Candidate) (int, error) {
	if len(cands) == 0 {
		return 0, ErrNoCandidates
	}
	return s.rng.Intn(len(cands)), nil
}

// RoundRobinSelector cycles through candidates — the "load spreading
// without information" baseline.
type RoundRobinSelector struct {
	next int
}

// Name returns the policy name.
func (s *RoundRobinSelector) Name() string { return "round-robin" }

// Select picks candidates cyclically across calls.
func (s *RoundRobinSelector) Select(cands []Candidate) (int, error) {
	if len(cands) == 0 {
		return 0, ErrNoCandidates
	}
	i := s.next % len(cands)
	s.next++
	return i, nil
}

// LatencyAwareSelector extends the cost model with a fourth system factor
// (the paper's future work #2: "refer to more system factors"): each
// millisecond of forecast round-trip time subtracts latencyPenaltyPerMs
// points from the candidate's score. With many small files the
// per-transfer protocol handshakes are latency-bound, which the three base
// factors cannot see.
type LatencyAwareSelector struct {
	Weights Weights
}

// latencyPenaltyPerMs is LatencyAwareSelector's score deduction per
// millisecond of RTT.
const latencyPenaltyPerMs = 0.5

// Name returns the policy name.
func (s LatencyAwareSelector) Name() string { return "cost-model+latency" }

// Select picks the candidate with the highest latency-adjusted score.
func (s LatencyAwareSelector) Select(cands []Candidate) (int, error) {
	if len(cands) == 0 {
		return 0, ErrNoCandidates
	}
	if err := s.Weights.Validate(); err != nil {
		return 0, err
	}
	best, bestScore := 0, math.Inf(-1)
	for i, c := range cands {
		score := Score(*c.Report, s.Weights) - latencyPenaltyPerMs*c.Report.LatencyMs
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best, nil
}

// BandwidthOnlySelector scores on bandwidth percentage alone (weights
// 100/0/0) — the ablation showing what CPU and I/O awareness adds.
type BandwidthOnlySelector struct{}

// Name returns the policy name.
func (s BandwidthOnlySelector) Name() string { return "bandwidth-only" }

// Select picks the candidate with the highest bandwidth percentage.
func (s BandwidthOnlySelector) Select(cands []Candidate) (int, error) {
	if len(cands) == 0 {
		return 0, ErrNoCandidates
	}
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].Report.BandwidthPercent > cands[best].Report.BandwidthPercent {
			best = i
		}
	}
	return best, nil
}

// SelectionServer is the replica selection server of Fig. 1: it takes the
// replica catalog's location list, reads the three system factors of
// every candidate from the information plane's current snapshot, scores
// them, and picks the best. The flat paper testbed runs one over the whole
// catalog; HierarchicalServer runs one per region shard.
type SelectionServer struct {
	catalog  *replica.Catalog
	source   *gridstate.Publisher
	weights  Weights
	selector Selector
	// view is the last pinned snapshot view, reused while its snapshot
	// stays current (per-epoch memoization). Written only by PinView on
	// the simulation goroutine, as are hosts and slots.
	view *SnapshotView
	// hosts is the source's tracked-host list, sorted, read at the first
	// pin (the set is fixed), and slots the id table over it: slots[id] is
	// 1 + the index in hosts of the catalog host with that id, 0 when the
	// source does not track it. It covers the hosts the catalog had
	// interned at the last pin and only grows.
	hosts []string
	slots []int32
}

// NewSelectionServer wires a selection server that reads source's
// snapshots: the full monitoring stack's publisher (info.Server.Publisher)
// in paper-scale worlds, or a thin one at planet scale where deploying
// per-host monitors would dominate the simulation. selector defaults to
// the cost model with the given weights when nil.
func NewSelectionServer(catalog *replica.Catalog, source *gridstate.Publisher, weights Weights, selector Selector) (*SelectionServer, error) {
	if catalog == nil {
		return nil, errors.New("core: selection server needs a catalog")
	}
	if source == nil {
		return nil, errors.New("core: selection server needs a snapshot source")
	}
	if err := weights.Validate(); err != nil {
		return nil, err
	}
	if selector == nil {
		selector = CostModelSelector{Weights: weights}
	}
	return &SelectionServer{catalog: catalog, source: source, weights: weights, selector: selector}, nil
}

// ErrNoUsableReplica is returned when every registered replica lacks
// monitoring data.
var ErrNoUsableReplica = errors.New("core: no usable replica")

// Rank scores every registered replica of the logical file against the
// snapshot current at now and returns the candidates sorted best-first.
// Replicas without monitoring data are skipped; if none remain,
// ErrNoUsableReplica is returned. Must run on the simulation goroutine
// (pinning a snapshot may rebuild it).
func (s *SelectionServer) Rank(logical string, now time.Duration) ([]Candidate, error) {
	return s.PinView(now).Rank(logical)
}

// SelectBest returns the selector's choice among the ranked candidates.
func (s *SelectionServer) SelectBest(logical string, now time.Duration) (Candidate, error) {
	cands, err := s.Rank(logical, now)
	if err != nil {
		return Candidate{}, err
	}
	return pick(s.selector, cands)
}

// pick applies a selector and bounds-checks its answer.
func pick(sel Selector, cands []Candidate) (Candidate, error) {
	i, err := sel.Select(cands)
	if err != nil {
		return Candidate{}, err
	}
	if i < 0 || i >= len(cands) {
		return Candidate{}, fmt.Errorf("core: selector %q returned out-of-range index %d", sel.Name(), i)
	}
	return cands[i], nil
}
