// Package sysstat is the slice of the Sysstat utilities the cost model
// reads (§2.3): iostat's %util column for a monitored host's disk,
// sampled periodically on the simulation clock so every reading is
// virtual-time coherent. The information server turns the latest sample
// into IO_P(j); CPU state comes from MDS (§1), so no CPU record is kept.
//
// The collector samples any Target — in this repository, a *cluster.Host.
package sysstat

import (
	"errors"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// Target is the monitored machine. cluster.Host satisfies it.
type Target interface {
	// IOLoad returns the busy fraction of the disk subsystem in [0,1].
	IOLoad() float64
}

// Period is the iostat sampling interval.
const Period = 2 * time.Second

// Collector samples a Target's disk utilisation every Period, the way an
// iostat daemon samples /proc, and keeps the latest sample.
type Collector struct {
	target Target
	ticker *simulation.Ticker
	util   float64
	rev    uint64
}

// NewCollector starts sampling target every Period on the engine, the
// first sample at the current instant.
func NewCollector(engine *simulation.Engine, target Target) (*Collector, error) {
	if target == nil {
		return nil, errors.New("sysstat: nil target")
	}
	c := &Collector{target: target}
	tk, err := engine.NewTicker(Period, c.sample)
	if err != nil {
		return nil, err
	}
	c.ticker = tk
	return c, nil
}

// SetPaused suspends (or resumes) sampling — the fault plane's model of a
// crashed iostat daemon. While paused neither the sample nor the revision
// moves, so snapshot consumers see the data go stale.
func (c *Collector) SetPaused(paused bool) { c.ticker.SetPaused(paused) }

func (c *Collector) sample(time.Duration) {
	c.util = c.target.IOLoad()
	c.rev++
}

// Revision increases with every sample taken. The gridstate snapshot
// plane polls it to detect that the idle statistic may have moved.
func (c *Collector) Revision() uint64 { return c.rev }

// ErrNoSamples is returned when a statistic is requested before any sample
// was taken.
var ErrNoSamples = errors.New("sysstat: no samples collected yet")

// IOIdlePercent returns the latest 100*(1-%util) — the cost model's
// IO_P(j) input.
func (c *Collector) IOIdlePercent() (float64, error) {
	if c.rev == 0 {
		return 0, ErrNoSamples
	}
	return 100 * (1 - c.util), nil
}
