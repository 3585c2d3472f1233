package placement

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// PopularityConfig tunes the weighted hot/warm/cold policy.
type PopularityConfig struct {
	// RegionOf maps a client host to its region.
	RegionOf func(host string) string
	// Regions is the total number of client regions in the grid; the
	// coverage weight normalizes distinct-region counts against it.
	Regions int
	// MinReplicas and MaxReplicas bound the per-file replica factor.
	MinReplicas, MaxReplicas int
}

// hotFactor and coldFactor position the popularity policy's dynamic
// classification thresholds as multiples of the epoch's mean popularity
// degree: PD >= hotFactor*mean is hot, PD <= coldFactor*mean is cold.
const (
	hotFactor  = 1.5
	coldFactor = 0.5
)

// fileWindow accumulates one file's accesses within the current epoch.
type fileWindow struct {
	accesses int            // ac_i: access frequency this epoch
	byRegion map[string]int // per-region access counts; len = dnc_i
}

// PopularityPolicy implements weighted dynamic replication driven by
// temporal locality and access frequency (the scheme of SNIPPETS.md
// snippets 2–3): each epoch it computes every accessed file's popularity
// degree PD_i = ac_i * w_i, where ac_i is the epoch access count and
// w_i = dnc_i / Regions is the coverage weight (the fraction of regions
// that touched the file — a file hammered from everywhere is worth more
// replicas than one hammered from a single region). Files are classified
// hot/warm/cold against dynamic thresholds derived from the epoch's mean
// PD, and the replica factor evolves one step per epoch: hot files grow
// a replica in the unserved region with the highest demand, cold files
// shrink from the served region with the lowest demand, warm files hold.
// Epoch windows reset on every OnEpoch, so classification tracks the
// current access pattern rather than all of history — that windowing is
// the temporal-locality part of the scheme.
type PopularityPolicy struct {
	cfg  PopularityConfig
	exec Executor

	window   map[string]*fileWindow
	inFlight map[string]bool // logical → an AddReplica copy is outstanding
	stats    Stats
}

var _ Policy = (*PopularityPolicy)(nil)

// NewPopularityPolicy wires the policy to an executor.
func NewPopularityPolicy(exec Executor, cfg PopularityConfig) (*PopularityPolicy, error) {
	if exec == nil {
		return nil, errors.New("placement: nil executor")
	}
	if cfg.RegionOf == nil {
		return nil, errors.New("placement: nil RegionOf")
	}
	if cfg.Regions <= 0 {
		return nil, fmt.Errorf("placement: Regions must be positive, got %d", cfg.Regions)
	}
	if cfg.MinReplicas < 1 || cfg.MaxReplicas < cfg.MinReplicas {
		return nil, fmt.Errorf("placement: replica bounds [%d,%d] invalid", cfg.MinReplicas, cfg.MaxReplicas)
	}
	return &PopularityPolicy{
		cfg:      cfg,
		exec:     exec,
		window:   make(map[string]*fileWindow),
		inFlight: make(map[string]bool),
	}, nil
}

// OnAccess accumulates the access into the current epoch window.
func (p *PopularityPolicy) OnAccess(a Access) error {
	if a.Logical == "" || a.Client == "" {
		return errors.New("placement: access needs logical and client")
	}
	p.stats.Accesses++
	w := p.window[a.Logical]
	if w == nil {
		w = &fileWindow{byRegion: make(map[string]int)}
		p.window[a.Logical] = w
	}
	w.accesses++
	w.byRegion[p.cfg.RegionOf(a.Client)]++
	return nil
}

// Stats reports cumulative counters plus the most recent epoch's class
// sizes.
func (p *PopularityPolicy) Stats() Stats { return p.stats }

// OnEpoch classifies the epoch's accessed files and moves each file's
// replica factor one step toward its class target. All iteration is in
// sorted order so identically-seeded runs issue identical executor calls.
func (p *PopularityPolicy) OnEpoch(time.Duration) error {
	if len(p.window) == 0 {
		return nil
	}
	names := make([]string, 0, len(p.window))
	for name := range p.window {
		names = append(names, name)
	}
	sort.Strings(names)

	// Popularity degree per file and the epoch mean that anchors the
	// dynamic thresholds.
	pd := make(map[string]float64, len(names))
	total := 0.0
	for _, name := range names {
		w := p.window[name]
		coverage := float64(len(w.byRegion)) / float64(p.cfg.Regions)
		pd[name] = float64(w.accesses) * coverage
		total += pd[name]
	}
	mean := total / float64(len(names))
	hotAt, coldAt := hotFactor*mean, coldFactor*mean

	p.stats.Hot, p.stats.Warm, p.stats.Cold = 0, 0, 0
	var firstErr error
	for _, name := range names {
		switch {
		case pd[name] >= hotAt:
			p.stats.Hot++
			if err := p.grow(name); err != nil && firstErr == nil {
				firstErr = err
			}
		case pd[name] <= coldAt:
			p.stats.Cold++
			if err := p.shrink(name); err != nil && firstErr == nil {
				firstErr = err
			}
		default:
			p.stats.Warm++
		}
		delete(p.window, name)
	}
	return firstErr
}

// grow adds one replica of name in the unserved region with the highest
// epoch demand (snippet 2's demand-weighted scoring with the "empty
// node" requirement: only regions without a replica are candidates).
func (p *PopularityPolicy) grow(name string) error {
	if p.inFlight[name] {
		return nil // previous epoch's copy still in progress
	}
	holding, err := p.exec.HoldingRegions(name)
	if err != nil {
		return err
	}
	if len(holding) >= p.cfg.MaxReplicas {
		return nil
	}
	held := make(map[string]bool, len(holding))
	for _, r := range holding {
		held[r] = true
	}
	w := p.window[name]
	regions := make([]string, 0, len(w.byRegion))
	for r := range w.byRegion {
		if !held[r] {
			regions = append(regions, r)
		}
	}
	sort.Strings(regions)
	target, best := "", -1
	for _, r := range regions {
		if w.byRegion[r] > best {
			target, best = r, w.byRegion[r]
		}
	}
	if target == "" {
		return nil // every demanding region is already served
	}
	p.inFlight[name] = true
	err = p.exec.AddReplica(name, target, func(err error) {
		delete(p.inFlight, name)
		if err == nil {
			p.stats.Replications++
		}
	})
	if err != nil {
		delete(p.inFlight, name) // done never fires for a copy that did not start
	}
	return err
}

// shrink removes name's replica in the served region with the lowest
// epoch demand, never going below MinReplicas.
func (p *PopularityPolicy) shrink(name string) error {
	holding, err := p.exec.HoldingRegions(name)
	if err != nil {
		return err
	}
	if len(holding) <= p.cfg.MinReplicas {
		return nil
	}
	w := p.window[name]
	victim, least := "", int(^uint(0)>>1)
	for _, r := range holding { // already sorted; ties keep the first
		if w.byRegion[r] < least {
			victim, least = r, w.byRegion[r]
		}
	}
	if victim == "" {
		return nil
	}
	if err := p.exec.RemoveReplica(name, victim); err != nil {
		return err
	}
	p.stats.Removals++
	return nil
}
