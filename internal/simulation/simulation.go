// Package simulation provides a deterministic discrete-event simulation
// engine with a virtual clock. Every time-dependent component of the grid
// testbed (network flows, monitors, workload generators) is driven by a
// single Engine so that experiments are reproducible and run in virtual
// time rather than wall time.
package simulation

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// Event is a handle to a scheduled event: the slot the engine keeps the
// event in and the generation that slot had when the event was scheduled.
// Events fire in increasing timestamp order; ties are broken by scheduling
// order (FIFO), which keeps runs deterministic.
//
// A slot's generation is bumped the moment its event fires or is canceled,
// so a handle to a dead event matches nothing: Cancel on it is a no-op even
// after the slot has been reused, and holders need not clear handles. The
// zero Event is never live.
type Event struct {
	slot uint32
	gen  uint64
}

// Handler is an event's receiver: the engine calls Fire, with the
// virtual clock, when the event comes due. A record that schedules
// itself implements Fire (usually through a named pointer type over the
// record, so the record's own API does not grow a Fire), which keeps a
// hot event from allocating a closure per scheduling.
type Handler interface {
	Fire(now time.Duration)
}

// Func adapts a function to Handler. A func is pointer-shaped, so the
// conversion allocates nothing.
type Func func(now time.Duration)

// Fire calls f.
func (f Func) Fire(now time.Duration) { f(now) }

// funcHandler wraps fn, leaving a nil fn a nil Handler for
// ScheduleHandler to refuse.
func funcHandler(fn func(now time.Duration)) Handler {
	if fn == nil {
		return nil
	}
	return Func(fn)
}

// slot is one cell of the engine's event slab. Generations start at 1.
// Slots and heap positions are 32 bits wide: the slab grows only to the
// peak number of concurrently pending events, and 2^31 of those would
// need 100 GB.
type slot struct {
	h   Handler
	gen uint64
	// sched is the instant the event was scheduled at, or, for a
	// backdated event (early), the earlier instant it is ordered as of.
	sched time.Duration
	pos   int32 // index into Engine.heap while pending
	early bool  // backdated, and listed in Engine.early while pending
}

// entry is one pending event in the heap, ordered by (at, seq).
type entry struct {
	at   time.Duration
	seq  uint64 // tie-breaker: insertion sequence number
	slot uint32
}

func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all callbacks run on the goroutine that calls RunUntil/Step.
type Engine struct {
	now time.Duration
	seq uint64
	// heap is a 4-ary min-heap of the pending events; slots holds their
	// handlers, addressed by entry.slot, and free lists the slots whose
	// event fired or was canceled. A steady-state simulation (schedule,
	// fire, reschedule, ...) therefore allocates nothing; all three are
	// bounded by the peak number of concurrently pending events.
	heap  []entry
	slots []slot
	free  []uint32
	// early lists the pending backdated events (scheduleAsOf). Within an
	// instant, events fire in order of the instant they were scheduled
	// at, a backdated event before an on-time one scheduled at the same
	// instant, then in scheduling order. Sequence numbers grow with the
	// clock, so the heap keeps that order among on-time events by itself;
	// Step checks only these against the root.
	early []uint32
	// lead is how far ahead the firing event was scheduled: its instant
	// minus its slot's sched. It is zero outside any event.
	lead    time.Duration
	running bool
	stopped bool
	fired   uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Scheduled returns the number of events ever scheduled, canceled ones
// included: the next event's tie-breaking sequence number. Only
// scheduling moves it, so an unchanged count means nothing was scheduled
// since.
func (e *Engine) Scheduled() uint64 { return e.seq }

// Pending returns the number of events still scheduled. Canceled events
// leave the heap immediately, so they are never counted here.
func (e *Engine) Pending() int { return len(e.heap) }

// ErrPastEvent is returned by Schedule when the requested time is before
// the current virtual time.
var ErrPastEvent = errors.New("simulation: cannot schedule event in the past")

// ScheduleHandler registers h to fire at absolute virtual time at. It
// returns the event handle, which may be used to cancel the event before
// it fires. It is the one way onto the queue: Schedule, After and
// AfterHandler wrap it.
func (e *Engine) ScheduleHandler(at time.Duration, h Handler) (Event, error) {
	if at < e.now {
		return Event{}, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, e.now)
	}
	if h == nil {
		return Event{}, errors.New("simulation: nil event function")
	}
	var id uint32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		id = uint32(len(e.slots))
		e.slots = append(e.slots, slot{gen: 1})
	}
	s := &e.slots[id]
	s.h, s.sched = h, e.now
	e.heap = append(e.heap, entry{})
	e.siftUp(len(e.heap)-1, entry{at: at, seq: e.seq, slot: id})
	e.seq++
	return Event{slot: id, gen: s.gen}, nil
}

// Schedule registers fn to run at absolute virtual time at.
func (e *Engine) Schedule(at time.Duration, fn func(now time.Duration)) (Event, error) {
	return e.ScheduleHandler(at, funcHandler(fn))
}

// scheduleAsOf schedules h at at, ordered among the events of that
// instant as if it had been scheduled at the earlier instant asOf, ahead
// of everything else scheduled then: after the events scheduled before
// asOf, before those scheduled at or after it. A waking Walk puts its next
// step there, where the step of a ticker started with the walk would be.
func (e *Engine) scheduleAsOf(at, asOf time.Duration, h Handler) Event {
	ev, err := e.ScheduleHandler(at, h)
	if err != nil {
		// Invariant: callers pass at >= now and a non-nil h.
		panic(fmt.Sprintf("simulation: backdated schedule failed: %v", err))
	}
	s := &e.slots[ev.slot]
	s.sched, s.early = asOf, true
	e.early = append(e.early, ev.slot)
	return ev
}

// AfterHandler registers h to fire after delay d from the current virtual
// time. A negative delay is treated as zero.
func (e *Engine) AfterHandler(d time.Duration, h Handler) (Event, error) {
	if d < 0 {
		d = 0
	}
	return e.ScheduleHandler(e.now+d, h)
}

// After registers fn to run after delay d from the current virtual time.
// A negative delay is treated as zero.
func (e *Engine) After(d time.Duration, fn func(now time.Duration)) (Event, error) {
	return e.AfterHandler(d, funcHandler(fn))
}

// Cancel removes the event from the schedule and reports whether it was
// still pending. A handle whose event already fired or was canceled — or
// the zero Event — is dead, and canceling it does nothing.
func (e *Engine) Cancel(ev Event) bool {
	if int(ev.slot) >= len(e.slots) || e.slots[ev.slot].gen != ev.gen {
		return false
	}
	e.removeAt(int(e.slots[ev.slot].pos))
	e.release(ev.slot)
	return true
}

// release kills every handle to the slot's event and recycles the slot.
// The handler is dropped so the slab does not pin its record.
func (e *Engine) release(id uint32) {
	s := &e.slots[id]
	if s.early {
		s.early = false
		last := len(e.early) - 1
		e.early[slices.Index(e.early, id)] = e.early[last]
		e.early = e.early[:last]
	}
	s.h = nil
	s.gen++
	e.free = append(e.free, id)
}

// place stores x at heap index i and records the position in its slot.
func (e *Engine) place(i int, x entry) {
	e.heap[i] = x
	e.slots[x.slot].pos = int32(i)
}

// siftUp moves the hole at i towards the root until x fits, then places x.
func (e *Engine) siftUp(i int, x entry) {
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(e.heap[p]) {
			break
		}
		e.place(i, e.heap[p])
		i = p
	}
	e.place(i, x)
}

// siftDown moves the hole at i towards the leaves until x fits, then
// places x.
func (e *Engine) siftDown(i int, x entry) {
	n := len(e.heap)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if e.heap[j].before(e.heap[m]) {
				m = j
			}
		}
		if !e.heap[m].before(x) {
			break
		}
		e.place(i, e.heap[m])
		i = m
	}
	e.place(i, x)
}

// removeAt deletes the entry at heap index i by refilling the hole with the
// last entry.
func (e *Engine) removeAt(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(e.heap[(i-1)/4]) {
		e.siftUp(i, last)
	} else {
		e.siftDown(i, last)
	}
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports whether an event was fired. The heap never holds canceled
// events, so its root is always live. The firing event's handle is dead
// before its callback runs, so canceling it from inside the callback is a
// no-op.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	i := 0
	if len(e.early) > 0 {
		i = e.next()
	}
	x := e.heap[i]
	s := &e.slots[x.slot]
	h, lead := s.h, x.at-s.sched
	e.removeAt(i)
	e.release(x.slot)
	e.now = x.at
	e.fired++
	e.lead = lead
	h.Fire(e.now)
	e.lead = 0
	return true
}

// next returns the heap index of the event to fire: the root, unless a
// backdated event of the root's instant comes before it.
func (e *Engine) next() int {
	best := 0
	for _, id := range e.early {
		if i := int(e.slots[id].pos); e.heap[i].at == e.heap[0].at && e.firesBefore(i, best) {
			best = i
		}
	}
	return best
}

// firesBefore orders two events of one instant, by heap index: by the
// instant they were scheduled (as of), backdated first, then by sequence.
func (e *Engine) firesBefore(i, j int) bool {
	a, b := &e.slots[e.heap[i].slot], &e.slots[e.heap[j].slot]
	if a.sched != b.sched {
		return a.sched < b.sched
	}
	if a.early != b.early {
		return a.early
	}
	return e.heap[i].seq < e.heap[j].seq
}

// Stop makes RunUntil return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// ErrReentrantRun is returned when RunUntil is called from inside an event
// callback.
var ErrReentrantRun = errors.New("simulation: reentrant Run")

// RunUntil fires events whose timestamp is <= deadline, then advances the
// clock to deadline (if the clock has not already passed it). Events
// scheduled beyond the deadline remain queued. A deadline of math.MaxInt64
// is no deadline: events fire until the queue drains or Stop is called,
// and the clock stays at the last event. After Stop the clock stays at
// the stopping event too, so it never passes an event left pending.
func (e *Engine) RunUntil(deadline time.Duration) error {
	if e.running {
		return ErrReentrantRun
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()
	for !e.stopped {
		if len(e.heap) == 0 {
			break
		}
		if e.heap[0].at > deadline {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < deadline && deadline != time.Duration(math.MaxInt64) {
		e.now = deadline
	}
	return nil
}

// Ticker repeatedly invokes fn every period, the first time at the instant
// it is created; it never stops, so an engine with a ticker never drains.
type Ticker struct {
	engine *Engine
	period time.Duration
	fn     func(now time.Duration)
	paused bool
}

// tick is a Ticker's event.
type tick Ticker

// NewTicker schedules fn to run now and then every period on the engine.
// period must be positive.
func (e *Engine) NewTicker(period time.Duration, fn func(now time.Duration)) (*Ticker, error) {
	if period <= 0 {
		return nil, fmt.Errorf("simulation: ticker period must be positive, got %v", period)
	}
	if fn == nil {
		return nil, errors.New("simulation: nil ticker function")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	if _, err := e.AfterHandler(0, (*tick)(t)); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *tick) Fire(now time.Duration) {
	if !t.paused {
		t.fn(now)
	}
	if _, err := t.engine.AfterHandler(t.period, t); err != nil {
		// Invariant: now+period fits the virtual clock (~292 years).
		// Dropping the error would freeze the ticker with no diagnostic.
		panic(fmt.Sprintf("simulation: ticker reschedule failed: %v", err))
	}
}

// SetPaused suspends (or resumes) the ticker's callback without
// disturbing its schedule: the tick events keep firing on the same
// period grid, but fn is skipped while paused. That models a monitoring
// process that has crashed — the rest of the simulation's event stream
// is unchanged, which keeps runs with and without an outage comparable.
func (t *Ticker) SetPaused(paused bool) { t.paused = paused }
