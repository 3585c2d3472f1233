// Package workload provides the synthetic workloads the experiment harness
// drives through the system: the paper's file-size and stream-count
// sweeps, Poisson request generators with Zipf-skewed file popularity
// (the standard model for data-grid access patterns), and compute-job
// generators that perturb host load while transfers run. The shared
// arrival core (Arrivals) is also the clock source for internal/traffic's
// per-region client populations.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/simulation"
)

// PaperFileSizesMB are the transfer sizes of Figs. 3 and 4.
var PaperFileSizesMB = []int64{256, 512, 1024, 2048}

// PaperStreamCounts are the Fig. 4 series: 0 denotes GridFTP without
// parallel data transfer (stream mode), then 1..16 TCP streams in MODE E.
var PaperStreamCounts = []int{0, 1, 2, 4, 8, 16}

// MB is the paper's megabyte (decimal, as network people count).
const MB = 1_000_000

// RequestConfig parameterizes a Poisson stream of data-access requests.
type RequestConfig struct {
	// Files are the logical file names requested.
	Files []string
	// RatePerMinute is the mean arrival rate.
	RatePerMinute float64
	// ZipfS picks the file-popularity model: 0 is uniform, > 1 is Zipf
	// rank-skew with that exponent, and anything else is an error.
	ZipfS float64
	// Seed drives arrival times and file choice.
	Seed int64
}

// RequestGenerator emits (virtual-time, logical-file) request events.
type RequestGenerator struct {
	cfg      RequestConfig
	rng      *rand.Rand
	zipf     *rand.Zipf
	arrivals *Arrivals
	emit     func(name string)
}

// NewRequestGenerator schedules Poisson arrivals on the engine; emit is
// invoked for each request with the chosen logical file.
func NewRequestGenerator(engine *simulation.Engine, cfg RequestConfig, emit func(name string)) (*RequestGenerator, error) {
	if engine == nil {
		return nil, errors.New("workload: nil engine")
	}
	if emit == nil {
		return nil, errors.New("workload: nil emit function")
	}
	if len(cfg.Files) == 0 {
		return nil, errors.New("workload: no files to request")
	}
	if cfg.RatePerMinute <= 0 {
		return nil, fmt.Errorf("workload: rate must be positive, got %v", cfg.RatePerMinute)
	}
	if cfg.ZipfS < 0 || (cfg.ZipfS > 0 && cfg.ZipfS <= 1) {
		return nil, fmt.Errorf("workload: Zipf s must be > 1 (or 0 for uniform), got %v", cfg.ZipfS)
	}
	g := &RequestGenerator{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		emit: emit,
	}
	if cfg.ZipfS > 0 {
		g.zipf = rand.NewZipf(g.rng, cfg.ZipfS, 1, uint64(len(cfg.Files)-1))
		if g.zipf == nil {
			return nil, fmt.Errorf("workload: bad Zipf parameters s=%v n=%d", cfg.ZipfS, len(cfg.Files))
		}
	}
	arr, err := NewArrivals(engine, g.rng, ConstantRate(cfg.RatePerMinute), func(time.Duration) {
		g.emit(g.pick())
	})
	if err != nil {
		return nil, err
	}
	g.arrivals = arr
	return g, nil
}

func (g *RequestGenerator) pick() string {
	if g.zipf != nil {
		return g.cfg.Files[g.zipf.Uint64()]
	}
	return g.cfg.Files[g.rng.Intn(len(g.cfg.Files))]
}

// JobConfig parameterizes a Poisson stream of compute jobs attached to
// hosts (the "large-scale data intensive applications" sharing the grid).
type JobConfig struct {
	// Hosts are candidates for job placement.
	Hosts []string
	// RatePerMinute is the mean job arrival rate.
	RatePerMinute float64
	// MeanDuration is the mean job run time (exponentially distributed).
	MeanDuration time.Duration
	// CPU and IO are each job's load contribution in [0,1].
	CPU, IO float64
	// Seed drives arrivals, placement and durations.
	Seed int64
}

// JobGenerator attaches and releases jobs on testbed hosts.
type JobGenerator struct {
	tb       *cluster.Testbed
	cfg      JobConfig
	rng      *rand.Rand
	arrivals *Arrivals
	placed   int
}

// NewJobGenerator starts a job arrival process on the testbed.
func NewJobGenerator(tb *cluster.Testbed, cfg JobConfig) (*JobGenerator, error) {
	if tb == nil {
		return nil, errors.New("workload: nil testbed")
	}
	if len(cfg.Hosts) == 0 {
		return nil, errors.New("workload: no hosts for jobs")
	}
	for _, h := range cfg.Hosts {
		if _, err := tb.Host(h); err != nil {
			return nil, err
		}
	}
	if cfg.RatePerMinute <= 0 {
		return nil, fmt.Errorf("workload: job rate must be positive, got %v", cfg.RatePerMinute)
	}
	if cfg.MeanDuration <= 0 {
		return nil, fmt.Errorf("workload: job duration must be positive, got %v", cfg.MeanDuration)
	}
	if cfg.CPU < 0 || cfg.CPU > 1 || cfg.IO < 0 || cfg.IO > 1 {
		return nil, fmt.Errorf("workload: job load (%v,%v) out of [0,1]", cfg.CPU, cfg.IO)
	}
	g := &JobGenerator{tb: tb, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	arr, err := NewArrivals(tb.Engine(), g.rng, ConstantRate(cfg.RatePerMinute), func(time.Duration) {
		g.place()
	})
	if err != nil {
		return nil, err
	}
	g.arrivals = arr
	return g, nil
}

func (g *JobGenerator) place() {
	name := g.cfg.Hosts[g.rng.Intn(len(g.cfg.Hosts))]
	h, err := g.tb.Host(name)
	if err != nil {
		return
	}
	job, err := h.AddJob(g.cfg.CPU, g.cfg.IO)
	if err != nil {
		return
	}
	g.placed++
	dur := time.Duration(g.rng.ExpFloat64() * float64(g.cfg.MeanDuration))
	if _, err := g.tb.Engine().After(dur, func(time.Duration) { job.Release() }); err != nil {
		job.Release()
	}
}
