package netsim

import (
	"fmt"
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

// StartBackground attaches background traffic to the directed link
// from->to: a walk seeded with seed that starts at the mean load and
// steps every Period. Unlike host load it is advanced by a ticker: a step
// moves the rates of the flows crossing the link at its own instant, and
// setBackgroundLoad's retight must see every step before the next fill.
func (n *Network) StartBackground(from, to string, cfg BackgroundConfig, seed int64) error {
	if cfg.Mean >= 1 || cfg.Max < 0 || cfg.Max >= 1 {
		return fmt.Errorf("netsim: background mean %v or max %v out of [0,1)", cfg.Mean, cfg.Max)
	}
	l, err := n.GetLink(from, to)
	if err != nil {
		return err
	}
	if cfg.Max == 0 {
		cfg.Max = 0.95
	}
	load := cfg.Mean
	w, err := simulation.NewWalk(n.engine, cfg.Period, seed, simulation.WalkAxis{
		V: &load, Mean: cfg.Mean, Reversion: cfg.Reversion, Volatility: cfg.Volatility, Max: cfg.Max})
	if err != nil {
		return err
	}
	n.setBackgroundLoad(l, load)
	_, err = n.engine.NewTicker(cfg.Period, false, func(time.Duration) {
		w.Advance()
		n.setBackgroundLoad(l, load)
	})
	return err
}
