// Package simulation provides a deterministic discrete-event simulation
// engine with a virtual clock. Every time-dependent component of the grid
// testbed (network flows, monitors, workload generators) is driven by a
// single Engine so that experiments are reproducible and run in virtual
// time rather than wall time.
package simulation

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"time"
)

// Event is a unit of scheduled work. Events fire in increasing timestamp
// order; ties are broken by scheduling order (FIFO), which keeps runs
// deterministic.
//
// Event structs are pooled by the engine: once an event has fired or been
// canceled, the engine may recycle the struct for a later Schedule/After
// call. A handle is therefore dead the moment its event fires or is
// canceled — holders must drop (nil) dead handles and must not pass them
// to Cancel later, or they risk canceling an unrelated recycled event.
// Canceling a dead handle that has not yet been recycled is still a
// harmless no-op, so clearing handles from inside the event's own
// callback (before any rescheduling) is always safe.
type Event struct {
	at       time.Duration // virtual time at which the event fires
	seq      uint64        // tie-breaker: insertion sequence number
	index    int           // heap index, -1 once removed
	canceled bool
	fn       func(now time.Duration)
}

// At reports the virtual time this event is scheduled for.
func (e *Event) At() time.Duration { return e.at }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all callbacks run on the goroutine that calls Run/Step.
type Engine struct {
	now   time.Duration
	seq   uint64
	queue eventQueue
	// free is the event free list: structs recycled after fire/cancel so
	// steady-state simulations (schedule, fire, reschedule, ...) allocate
	// no events at all. Its length is bounded by the peak number of
	// concurrently pending events.
	free    []*Event
	running bool
	stopped bool
	fired   uint64
}

// getEvent pops a recycled event from the free list, or allocates one.
func (e *Engine) getEvent() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// putEvent returns a fired or canceled event to the free list. The fn
// reference is dropped so the pool does not pin callback closures.
func (e *Engine) putEvent(ev *Event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still scheduled. Canceled events
// are removed from the schedule immediately (Cancel calls heap.Remove),
// so they are never counted here.
func (e *Engine) Pending() int { return len(e.queue) }

// ErrPastEvent is returned by Schedule when the requested time is before
// the current virtual time.
var ErrPastEvent = errors.New("simulation: cannot schedule event in the past")

// Schedule registers fn to run at absolute virtual time at. It returns the
// event handle, which may be used to cancel the event before it fires.
func (e *Engine) Schedule(at time.Duration, fn func(now time.Duration)) (*Event, error) {
	if at < e.now {
		return nil, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, e.now)
	}
	if fn == nil {
		return nil, errors.New("simulation: nil event function")
	}
	ev := e.getEvent()
	*ev = Event{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev, nil
}

// After registers fn to run after delay d from the current virtual time.
// A negative delay is treated as zero.
func (e *Engine) After(d time.Duration, fn func(now time.Duration)) (*Event, error) {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// Cancel removes the event from the schedule and recycles its struct.
// Canceling an already-fired or already-canceled event whose struct has
// not yet been reused is a no-op; see the Event doc for the handle
// lifetime rules. Cancel reports whether the event was still pending.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.canceled || ev.index < 0 {
		return false
	}
	ev.canceled = true
	heap.Remove(&e.queue, ev.index)
	e.putEvent(ev)
	return true
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports whether an event was fired. The queue never holds canceled
// events (Cancel removes them from the heap eagerly), so the head of the
// queue is always live. The fired event is recycled only after its
// callback returns, so canceling the firing event from inside its own
// callback remains a harmless no-op.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	e.now = ev.at
	e.fired++
	fn := ev.fn
	fn(e.now)
	e.putEvent(ev)
	return true
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// ErrReentrantRun is returned when Run/RunUntil is called from inside an
// event callback.
var ErrReentrantRun = errors.New("simulation: reentrant Run")

// Run fires events until the queue drains or Stop is called.
func (e *Engine) Run() error {
	return e.RunUntil(time.Duration(math.MaxInt64))
}

// RunUntil fires events whose timestamp is <= deadline, then advances the
// clock to deadline (if the clock has not already passed it). Events
// scheduled beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline time.Duration) error {
	if e.running {
		return ErrReentrantRun
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()
	for !e.stopped {
		if len(e.queue) == 0 {
			break
		}
		next := e.queue[0]
		if next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline && deadline != time.Duration(math.MaxInt64) {
		e.now = deadline
	}
	return nil
}

// Ticker repeatedly invokes fn every period until Stop is called or the
// engine drains. The first invocation happens one period after creation
// unless immediate is set.
type Ticker struct {
	engine  *Engine
	period  time.Duration
	fn      func(now time.Duration)
	ev      *Event
	stopped bool
	paused  bool
}

// NewTicker schedules fn to run periodically on the engine. period must be
// positive.
func (e *Engine) NewTicker(period time.Duration, immediate bool, fn func(now time.Duration)) (*Ticker, error) {
	if period <= 0 {
		return nil, fmt.Errorf("simulation: ticker period must be positive, got %v", period)
	}
	if fn == nil {
		return nil, errors.New("simulation: nil ticker function")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	first := period
	if immediate {
		first = 0
	}
	ev, err := e.After(first, t.tick)
	if err != nil {
		return nil, err
	}
	t.ev = ev
	return t, nil
}

func (t *Ticker) tick(now time.Duration) {
	// The firing event is dead; drop the handle before running fn so a
	// Stop from inside fn never cancels a recycled event.
	t.ev = nil
	if t.stopped {
		return
	}
	if !t.paused {
		t.fn(now)
	}
	if t.stopped { // fn may have stopped the ticker
		return
	}
	ev, err := t.engine.After(t.period, t.tick)
	if err != nil {
		// After with a positive period can only fail if now+period
		// overflows the virtual clock (~292 years). Silently dropping the
		// error would freeze the ticker forever with no diagnostic, so
		// treat it as the programming error it is.
		panic(fmt.Sprintf("simulation: ticker reschedule failed: %v", err))
	}
	t.ev = ev
}

// SetPaused suspends (or resumes) the ticker's callback without
// disturbing its schedule: the tick events keep firing on the same
// period grid, but fn is skipped while paused. That models a monitoring
// process that has crashed — the rest of the simulation's event stream
// is unchanged, which keeps runs with and without an outage comparable.
// Pausing a stopped ticker has no effect.
func (t *Ticker) SetPaused(paused bool) { t.paused = paused }

// Paused reports whether the ticker's callback is currently suspended.
func (t *Ticker) Paused() bool { return t.paused }

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.engine.Cancel(t.ev)
}
