package simulation

import (
	"fmt"
	"math/rand"
	"time"
)

// Walk is a clamped mean-reverting random walk (a discretized
// Ornstein-Uhlenbeck process) on a fixed period grid. One step moves every
// axis in order, each with one normal draw from the walk's own RNG, which
// is seeded at the first step: a walk nobody reads costs no RNG state.
//
// A walk is lazy: Advance applies the steps a read at the engine's clock
// comes after, and nothing is scheduled. While its owner needs each step
// at its own instant (a link's background load moves the rates of the
// flows crossing it), Wake makes the walk step on its own event until
// Sleep. Either way every read sees what it would see if a ticker started
// with the walk stepped it, and the draws come in the same order.
type Walk struct {
	engine *Engine
	rng    *rand.Rand
	seed   int64
	period time.Duration
	// due is the cursor: the grid instant of the first unapplied step.
	due  time.Duration
	axes []WalkAxis
	// onStep runs after each step the walk takes on its own event; ev is
	// the pending one while awake.
	onStep func()
	ev     Event
}

// walkStep is an awake Walk's event.
type walkStep Walk

// WalkAxis is one coordinate of a Walk: the value V points at (its owner
// may overwrite it between steps), pulled toward Mean by Reversion per
// step, shocked with standard deviation Volatility, clamped to [0, Max].
type WalkAxis struct {
	V                                *float64
	Mean, Reversion, Volatility, Max float64
}

// NewWalk starts a walk whose first step is due one period from now;
// onStep runs after each step it takes while awake (Wake), and may be nil
// for a walk that never wakes. It needs a positive period and, on every
// axis, a Volatility and a Mean no less than zero, a Mean no more than
// Max, and a Reversion in (0,1].
func NewWalk(e *Engine, period time.Duration, seed int64, onStep func(), axes ...WalkAxis) (*Walk, error) {
	if period <= 0 {
		return nil, fmt.Errorf("simulation: walk period must be positive, got %v", period)
	}
	for _, a := range axes {
		if a.Mean < 0 || a.Volatility < 0 || a.Reversion <= 0 || a.Reversion > 1 {
			return nil, fmt.Errorf("simulation: walk mean %v, volatility %v or reversion %v out of range", a.Mean, a.Volatility, a.Reversion)
		}
		if a.Mean > a.Max {
			return nil, fmt.Errorf("simulation: walk mean %v above its max %v", a.Mean, a.Max)
		}
	}
	return &Walk{engine: e, seed: seed, period: period, due: e.now + period, axes: axes, onStep: onStep}, nil
}

// Advance applies every step that comes before a read at the engine's
// clock. That is every step due before it, and the one due at it when a
// ticker started with the walk would have fired first: the ticker's event
// for instant T is scheduled at T - period, so it precedes the events of T
// scheduled after that, those scheduled at T - period too as long as the
// walk is older than any same-period chain that reads it, and, outside
// any event, every event of T. A nil walk has no steps.
func (w *Walk) Advance() {
	if w != nil && w.due <= w.engine.now {
		w.catchUp()
	}
}

func (w *Walk) catchUp() {
	now := w.engine.now
	for w.due < now || w.due == now && w.engine.lead <= w.period {
		if w.rng == nil {
			w.rng = rand.New(rand.NewSource(w.seed))
		}
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
		w.due += w.period
	}
}

// Wake catches a sleeping walk up and makes it step on its own event,
// calling onStep after each step, until Sleep. The first event is ordered
// among its instant's events where the ticker's would be
// (Engine.scheduleAsOf); each later one is scheduled by the step before
// it, as the ticker's is.
func (w *Walk) Wake() {
	w.Advance()
	w.ev = w.engine.scheduleAsOf(w.due, w.due-w.period, (*walkStep)(w))
}

// Sleep cancels an awake walk's pending step; reads catch it up again.
// It is a no-op on a sleeping or nil walk.
func (w *Walk) Sleep() {
	if w != nil {
		w.engine.Cancel(w.ev)
	}
}

func (s *walkStep) Fire(time.Duration) {
	w := (*Walk)(s)
	w.catchUp()
	w.onStep()
	ev, err := w.engine.ScheduleHandler(w.due, s)
	if err != nil {
		// Invariant: catchUp leaves w.due at or after now, inside the clock.
		panic(fmt.Sprintf("simulation: walk step schedule failed: %v", err))
	}
	w.ev = ev
}
