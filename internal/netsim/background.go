package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// BackgroundConfig parameterizes a synthetic background-traffic process on
// one directed link. The load follows a mean-reverting bounded random walk
// (a discretized Ornstein-Uhlenbeck process), which produces the kind of
// slowly-wandering cross traffic NWS was built to forecast.
type BackgroundConfig struct {
	// Mean is the long-run average load fraction in [0, 1).
	Mean float64
	// Volatility is the per-step noise amplitude (std dev of the shock).
	Volatility float64
	// Reversion in (0, 1] is the pull toward the mean per step.
	Reversion float64
	// Period is the virtual-time interval between load updates.
	Period time.Duration
	// Max clamps the load; defaults to 0.95 if zero.
	Max float64
}

func (c BackgroundConfig) validate() error {
	if c.Mean < 0 || c.Mean >= 1 {
		return fmt.Errorf("netsim: background mean %v out of [0,1)", c.Mean)
	}
	if c.Volatility < 0 {
		return fmt.Errorf("netsim: negative volatility %v", c.Volatility)
	}
	if c.Reversion <= 0 || c.Reversion > 1 {
		return fmt.Errorf("netsim: reversion %v out of (0,1]", c.Reversion)
	}
	if c.Period <= 0 {
		return fmt.Errorf("netsim: background period must be positive, got %v", c.Period)
	}
	if c.Max < 0 || c.Max >= 1 {
		return fmt.Errorf("netsim: background max %v out of [0,1)", c.Max)
	}
	return nil
}

// BackgroundProcess drives time-varying background load on a link.
type BackgroundProcess struct {
	net    *Network
	link   *Link
	cfg    BackgroundConfig
	rng    *rand.Rand
	load   float64
	ticker *simulation.Ticker
}

// StartBackground attaches a background-traffic process to the directed
// link from->to. The process starts at the mean load and updates every
// Period. seed makes the trajectory reproducible.
func (n *Network) StartBackground(from, to string, cfg BackgroundConfig, seed int64) (*BackgroundProcess, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l, err := n.GetLink(from, to)
	if err != nil {
		return nil, err
	}
	if cfg.Max == 0 {
		cfg.Max = 0.95
	}
	p := &BackgroundProcess{
		net:  n,
		link: l,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(seed)),
		load: cfg.Mean,
	}
	n.setBackgroundLoad(l, p.load)
	t, err := n.engine.NewTicker(cfg.Period, false, p.step)
	if err != nil {
		return nil, err
	}
	p.ticker = t
	return p, nil
}

func (p *BackgroundProcess) step(time.Duration) {
	shock := p.rng.NormFloat64() * p.cfg.Volatility
	p.load += p.cfg.Reversion*(p.cfg.Mean-p.load) + shock
	if p.load < 0 {
		p.load = 0
	}
	if p.load > p.cfg.Max {
		p.load = p.cfg.Max
	}
	p.net.setBackgroundLoad(p.link, p.load)
}

// Load returns the current background load fraction.
func (p *BackgroundProcess) Load() float64 { return p.load }

// Stop halts future updates, freezing the current load.
func (p *BackgroundProcess) Stop() { p.ticker.Stop() }
