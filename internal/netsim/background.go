package netsim

import (
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// backgroundPeriod is the virtual-time interval between background load
// steps.
const backgroundPeriod = time.Second

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
	// Max clamps the load; defaults to 0.95 if zero.
	Max float64
}

// StartBackground attaches background traffic to the directed link
// from->to: a walk seeded with seed that starts at the mean load and
// steps every backgroundPeriod. A link takes one walk. The walk is awake
// while a flow crosses the link: each step is an event that moves the
// rates of the flows crossing it at its own instant, and
// setBackgroundLoad's retight sees every step before the next fill. While no flow crosses it,
// nothing is scheduled and a read catches the walk up (Link.settle).
func (n *Network) StartBackground(from, to string, cfg BackgroundConfig, seed int64) error {
	if cfg.Mean >= 1 || cfg.Max < 0 || cfg.Max >= 1 {
		return fmt.Errorf("netsim: background mean %v or max %v out of [0,1)", cfg.Mean, cfg.Max)
	}
	l, err := n.GetLink(from, to)
	if err != nil {
		return err
	}
	if l.walk != nil {
		return fmt.Errorf("netsim: link %s->%s already has background traffic", from, to)
	}
	if cfg.Max == 0 {
		cfg.Max = 0.95
	}
	w, err := simulation.NewWalk(n.engine, backgroundPeriod, seed, func() { n.setBackgroundLoad(l, l.bgLoad) },
		simulation.WalkAxis{V: &l.bgLoad, Mean: cfg.Mean, Reversion: cfg.Reversion, Volatility: cfg.Volatility, Max: cfg.Max})
	if err != nil {
		return err
	}
	n.setBackgroundLoad(l, cfg.Mean)
	l.walk = w
	if l.nflows > 0 {
		w.Wake()
	}
	return nil
}
