package simulation

import (
	"fmt"
	"math/rand"
	"time"
)

// Walk is a clamped mean-reverting random walk (a discretized
// Ornstein-Uhlenbeck process) on a fixed period grid. One step moves every
// axis in order, each with one normal draw from the walk's own RNG. A walk
// schedules nothing: Advance applies the steps due since its last call.
type Walk struct {
	engine *Engine
	rng    *rand.Rand
	period time.Duration
	// due is the cursor: the grid time of the first unapplied step. A
	// step due at instant T comes before every read at T that advances
	// first. That matches a ticker stepping the walk whenever the reader
	// was scheduled less than one period ahead, which holds on the paper
	// testbed: its host-load walks start in StartPaperDynamics, before
	// any monitor or transfer is scheduled.
	due  time.Duration
	axes []WalkAxis
}

// WalkAxis is one coordinate of a Walk: the value V points at (its owner
// may overwrite it between steps), pulled toward Mean by Reversion per
// step, shocked with standard deviation Volatility, clamped to [0, Max].
type WalkAxis struct {
	V                                *float64
	Mean, Reversion, Volatility, Max float64
}

// NewWalk starts a walk whose first step is due one period from now. It
// needs a positive period and, on every axis, a non-negative Mean and
// Volatility and a Reversion in (0,1].
func NewWalk(e *Engine, period time.Duration, seed int64, axes ...WalkAxis) (*Walk, error) {
	if period <= 0 {
		return nil, fmt.Errorf("simulation: walk period must be positive, got %v", period)
	}
	for _, a := range axes {
		if a.Mean < 0 || a.Volatility < 0 || a.Reversion <= 0 || a.Reversion > 1 {
			return nil, fmt.Errorf("simulation: walk mean %v, volatility %v or reversion %v out of range", a.Mean, a.Volatility, a.Reversion)
		}
	}
	return &Walk{engine: e, rng: rand.New(rand.NewSource(seed)), period: period, due: e.now + period, axes: axes}, nil
}

// Advance applies every step due at or before the engine's clock. A nil
// walk has none.
func (w *Walk) Advance() {
	if w != nil && w.due <= w.engine.now {
		w.catchUp()
	}
}

func (w *Walk) catchUp() {
	for ; w.due <= w.engine.now; w.due += w.period {
		for i := range w.axes {
			a := &w.axes[i]
			v := *a.V + (a.Reversion*(a.Mean-*a.V) + w.rng.NormFloat64()*a.Volatility)
			if v < 0 {
				v = 0
			} else if v > a.Max {
				v = a.Max
			}
			*a.V = v
		}
	}
}
