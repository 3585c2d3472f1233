package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// Arrivals is the seeded Poisson-arrival core shared by the request and
// job generators and by internal/traffic's per-region client populations.
// It owns the inter-arrival schedule: each arrival draws an exponential
// gap from the generator's RNG at the configured rate, fires the
// callback, and schedules the next arrival. The rate is a function of
// virtual time sampled when each gap is drawn, so slowly-varying
// intensity curves (diurnal load) ride the same core as constant-rate
// streams without changing the draw order for the constant case.
type Arrivals struct {
	eng     *simulation.Engine
	rng     *rand.Rand
	rate    func(now time.Duration) float64
	fire    func(now time.Duration)
	stopped bool
	count   int
}

// arrival is an Arrivals' next-arrival event.
type arrival Arrivals

// ConstantRate adapts a fixed arrivals-per-minute figure to the rate
// function NewArrivals takes.
func ConstantRate(perMinute float64) func(time.Duration) float64 {
	return func(time.Duration) float64 { return perMinute }
}

// NewArrivals starts an arrival process on the engine: fire is invoked
// at every arrival instant. rate must return a positive arrivals-per-minute
// figure at every sampled time; a first sample that is not is an error, a
// later one a panic. The caller owns the RNG; all of the process's draws
// (one ExpFloat64 per gap) come from it, interleaved with whatever draws
// fire itself performs, exactly as the pre-refactor generators drew them.
func NewArrivals(eng *simulation.Engine, rng *rand.Rand, rate func(time.Duration) float64, fire func(time.Duration)) (*Arrivals, error) {
	if eng == nil {
		return nil, errors.New("workload: nil engine")
	}
	if rng == nil {
		return nil, errors.New("workload: nil rng")
	}
	if rate == nil {
		return nil, errors.New("workload: nil rate function")
	}
	if fire == nil {
		return nil, errors.New("workload: nil fire function")
	}
	if r := rate(eng.Now()); !(r > 0) {
		return nil, fmt.Errorf("workload: arrival rate %v at %v is not positive", r, eng.Now())
	}
	a := &Arrivals{eng: eng, rng: rng, rate: rate, fire: fire}
	a.scheduleNext()
	return a, nil
}

func (e *arrival) Fire(now time.Duration) {
	a := (*Arrivals)(e)
	if a.stopped {
		return
	}
	a.count++
	a.fire(now)
	a.scheduleNext()
}

func (a *Arrivals) scheduleNext() {
	r := a.rate(a.eng.Now())
	if !(r > 0) {
		// Contract: rate stays positive; NewArrivals rejected a bad first sample.
		panic(fmt.Sprintf("workload: arrival rate %v at %v is not positive", r, a.eng.Now()))
	}
	mean := time.Minute.Seconds() / r
	delay := time.Duration(a.rng.ExpFloat64() * mean * float64(time.Second))
	if _, err := a.eng.AfterHandler(delay, (*arrival)(a)); err != nil {
		// Invariant: now+delay fits the virtual clock (AfterHandler
		// clamps negative delays and the handler is not nil). Silently
		// stopping the stream would corrupt every downstream number.
		panic(fmt.Sprintf("workload: arrival scheduling failed: %v", err))
	}
}

// Count returns how many arrivals have fired.
func (a *Arrivals) Count() int { return a.count }

// Stop halts the process: the already-scheduled next arrival is ignored
// and nothing further is drawn from the RNG.
func (a *Arrivals) Stop() { a.stopped = true }
