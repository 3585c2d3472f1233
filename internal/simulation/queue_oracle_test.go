package simulation

import (
	"container/heap"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// oracleCases is how many seeded storms the differential sweep runs.
// Tier-1 runs the default; CI runs ten times that under -race
// (-oracle.cases=10000). A test-binary flag, not a program knob.
var oracleCases = flag.Int("oracle.cases", 1000, "schedule/cancel storms the queue oracle sweep diffs")

// The reference: the engine as it was — container/heap over []*refEvent,
// pooled structs, and the rule that holders never pass a dead handle to
// Cancel (refSubject keeps that rule for it) — with the order within an
// instant spelled out in full: by the instant an event was scheduled at
// (or backdated to), backdated first, then by sequence.

type refEvent struct {
	at       time.Duration
	sched    time.Duration
	early    bool
	seq      uint64
	index    int
	canceled bool
	fn       func(now time.Duration)
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.sched != b.sched {
		return a.sched < b.sched
	}
	if a.early != b.early {
		return a.early
	}
	return a.seq < b.seq
}

func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

type refEngine struct {
	now     time.Duration
	lead    time.Duration
	seq     uint64
	queue   refQueue
	free    []*refEvent
	running bool
	stopped bool
	fired   uint64
}

func (e *refEngine) getEvent() *refEvent {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &refEvent{}
}

func (e *refEngine) putEvent(ev *refEvent) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

func (e *refEngine) Schedule(at time.Duration, fn func(now time.Duration)) (*refEvent, error) {
	if at < e.now {
		return nil, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, e.now)
	}
	if fn == nil {
		return nil, errors.New("simulation: nil event function")
	}
	ev := e.getEvent()
	*ev = refEvent{at: at, sched: e.now, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev, nil
}

func (e *refEngine) After(d time.Duration, fn func(now time.Duration)) (*refEvent, error) {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

func (e *refEngine) Cancel(ev *refEvent) bool {
	if ev == nil || ev.canceled || ev.index < 0 {
		return false
	}
	ev.canceled = true
	heap.Remove(&e.queue, ev.index)
	e.putEvent(ev)
	return true
}

func (e *refEngine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*refEvent)
	e.now = ev.at
	e.fired++
	fn := ev.fn
	e.lead = ev.at - ev.sched
	fn(e.now)
	e.lead = 0
	e.putEvent(ev)
	return true
}

func (e *refEngine) RunUntil(deadline time.Duration) error {
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
	if !e.stopped && e.now < deadline && deadline != time.Duration(math.MaxInt64) {
		e.now = deadline
	}
	return nil
}

// subject is the engine surface a storm drives. Handles are the ordinal
// of the Schedule/After call that returned them, so one script addresses
// both engines.
type subject struct {
	now      func() time.Duration
	schedule func(id int, at time.Duration, fn func(time.Duration)) error
	backdate func(id int, at, asOf time.Duration, fn func(time.Duration))
	after    func(id int, d time.Duration, fn func(time.Duration)) error
	cancel   func(id int) bool
	step     func() bool
	runUntil func(time.Duration) error
	stop     func()
	pending  func() int
	fired    func() uint64
	lead     func() time.Duration
}

// newSubject drives the production engine: it hands every handle it ever
// got straight to Cancel, dead or alive. reused counts the dead handles
// whose slot was holding another pending event at the time.
func newSubject(reused *int) subject {
	e := NewEngine()
	handles := map[int]Event{}
	keep := func(id int, ev Event, err error) error {
		if err == nil {
			handles[id] = ev
		}
		return err
	}
	return subject{
		now: e.Now,
		schedule: func(id int, at time.Duration, fn func(time.Duration)) error {
			ev, err := e.Schedule(at, fn)
			return keep(id, ev, err)
		},
		backdate: func(id int, at, asOf time.Duration, fn func(time.Duration)) {
			keep(id, e.scheduleAsOf(at, asOf, Func(fn)), nil)
		},
		after: func(id int, d time.Duration, fn func(time.Duration)) error {
			ev, err := e.After(d, fn)
			return keep(id, ev, err)
		},
		cancel: func(id int) bool {
			ev := handles[id] // the zero Event for an id that failed to schedule
			if int(ev.slot) < len(e.slots) {
				if s := e.slots[ev.slot]; s.gen != ev.gen && s.h != nil {
					*reused++
				}
			}
			return e.Cancel(ev)
		},
		step:     e.Step,
		runUntil: e.RunUntil,
		stop:     e.Stop,
		pending:  e.Pending,
		fired:    e.Fired,
		lead:     func() time.Duration { return e.lead },
	}
}

// refSubject drives the reference engine under its protocol: a handle is
// dropped the moment its event fires or is canceled, and a dropped handle
// is never passed to Cancel.
func refSubject() subject {
	e := &refEngine{}
	live := map[int]*refEvent{}
	keep := func(id int, ev *refEvent, err error) error {
		if err == nil {
			live[id] = ev
		}
		return err
	}
	dropping := func(id int, fn func(time.Duration)) func(time.Duration) {
		return func(now time.Duration) {
			delete(live, id)
			fn(now)
		}
	}
	return subject{
		now: func() time.Duration { return e.now },
		schedule: func(id int, at time.Duration, fn func(time.Duration)) error {
			ev, err := e.Schedule(at, dropping(id, fn))
			return keep(id, ev, err)
		},
		backdate: func(id int, at, asOf time.Duration, fn func(time.Duration)) {
			ev, err := e.Schedule(at, dropping(id, fn))
			ev.sched, ev.early = asOf, true
			heap.Fix(&e.queue, ev.index)
			keep(id, ev, err)
		},
		after: func(id int, d time.Duration, fn func(time.Duration)) error {
			ev, err := e.After(d, dropping(id, fn))
			return keep(id, ev, err)
		},
		cancel: func(id int) bool {
			ev := live[id]
			delete(live, id)
			return e.Cancel(ev)
		},
		step:     e.Step,
		runUntil: e.RunUntil,
		stop:     func() { e.stopped = true },
		pending:  func() int { return len(e.queue) },
		fired:    func() uint64 { return e.fired },
		lead:     func() time.Duration { return e.lead },
	}
}

// rec is one observation of a storm: what happened, to which handle, and
// the engine's clock, Pending, Fired and firing event's lead right after.
type rec struct {
	what    string
	id      int
	ok      bool
	now     time.Duration
	pending int
	fired   uint64
	lead    time.Duration
}

// queueTally counts the edge cases a sweep reached.
type queueTally struct {
	ties, cancelSelf, cancelOtherInside, deadCancels, reusedSlots int
	stops, deadlineLeftPending, pastRejected, reentrant           int
	backdated, backdatedJumps                                     int
}

// intner is the one draw a storm makes: a *rand.Rand, or FuzzEngineOps'
// byte source.
type intner interface{ Intn(n int) int }

// storm runs one script drawn from rng against q and returns everything it
// saw. All draws are made in firing order, so two engines that fire the
// same stream draw the same script and any divergence shows in the log.
// A narrow storm spans a handful of instants, so ties and slot reuse
// dominate; a wide one spreads over a long horizon, so the heap is deep
// and cancels land in its middle.
func storm(rng intner, wide bool, q subject, tally *queueTally) []rec {
	const unit = time.Millisecond
	var log []rec
	span, budget, ops := 6, 150, 120 // delay range in units, Schedule/After calls left, top-level operations
	if wide {
		span, budget, ops = 500, 500, 400
	}
	next := 0             // next handle id
	lastFire := -1 * unit // timestamp of the previous fire, for the tie tally
	note := func(what string, id int, ok bool) {
		log = append(log, rec{what, id, ok, q.now(), q.pending(), q.fired(), q.lead()})
	}
	anyHandle := func() int {
		if next == 0 || rng.Intn(16) == 0 {
			return -1 // never issued: the zero handle
		}
		return rng.Intn(next)
	}
	var add func(inside bool)
	backdated := map[int]bool{}
	lastID := -1 // the previous event fired, for the jump tally
	fire := func(id int) func(time.Duration) {
		return func(now time.Duration) {
			if now == lastFire {
				tally.ties++
			}
			if backdated[id] && id > lastID && now == lastFire {
				tally.backdatedJumps++ // fired before an older event of its instant
			}
			lastID = id
			lastFire = now
			note("fire", id, true)
			for k := rng.Intn(3); k > 0; k-- {
				switch rng.Intn(8) {
				case 0:
					tally.cancelSelf++
					note("cancel-self", id, q.cancel(id))
				case 1, 2:
					other := anyHandle()
					ok := q.cancel(other)
					if ok {
						tally.cancelOtherInside++
					}
					note("cancel", other, ok)
				case 3:
					if rng.Intn(4) == 0 {
						tally.stops++
						q.stop()
						note("stop", id, true)
					}
				case 4:
					if err := q.runUntil(now + unit); errors.Is(err, ErrReentrantRun) {
						tally.reentrant++
						note("reentrant", id, true)
					} else {
						note("reentrant", id, false)
					}
				default:
					add(true)
				}
			}
		}
	}
	add = func(inside bool) {
		if budget == 0 {
			return
		}
		budget--
		id := next
		next++
		var err error
		switch d := time.Duration(rng.Intn(span)) * unit; rng.Intn(9) {
		case 8: // ordered as of an earlier instant (a waking walk's step)
			tally.backdated++
			backdated[id] = true
			q.backdate(id, q.now()+d, q.now()-time.Duration(rng.Intn(span))*unit, fire(id))
		case 0:
			err = q.schedule(id, q.now()-unit, fire(id)) // the past
			if errors.Is(err, ErrPastEvent) {
				tally.pastRejected++
			}
		case 1:
			err = q.after(id, -d, fire(id)) // clamped to now
		case 2, 3:
			err = q.after(id, d, fire(id))
		default:
			err = q.schedule(id, q.now()+d, fire(id))
		}
		what := "add"
		if inside {
			what = "add-inside"
		}
		note(what, id, err == nil)
	}
	for op := 0; op < ops; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			add(false)
		case 4, 5:
			id := anyHandle()
			before := q.pending()
			ok := q.cancel(id)
			if !ok && before > 0 {
				tally.deadCancels++
			}
			note("cancel", id, ok)
		case 6, 7:
			note("step", -1, q.step())
		default:
			err := q.runUntil(q.now() + time.Duration(rng.Intn(4))*unit)
			if q.pending() > 0 {
				tally.deadlineLeftPending++
			}
			note("rununtil", -1, err == nil)
		}
	}
	budget = 0
	for q.pending() > 0 { // Stop from a callback returns early; run on
		note("drain", -1, q.runUntil(time.Duration(math.MaxInt64)) == nil)
	}
	return log
}

// diffStorms returns the first observation on which the production engine
// and the reference disagree over cases seeded storms.
func diffStorms(cases int, tally *queueTally) error {
	for seed := int64(1); seed <= int64(cases); seed++ {
		// Three storms in four are narrow, the fourth wide.
		got := storm(rand.New(rand.NewSource(seed)), seed%4 == 0, newSubject(&tally.reusedSlots), tally)
		want := storm(rand.New(rand.NewSource(seed)), seed%4 == 0, refSubject(), &queueTally{})
		if err := diffLogs(got, want); err != nil {
			return fmt.Errorf("seed %d, %w", seed, err)
		}
	}
	return nil
}

// diffLogs returns the first observation on which the production engine's
// log and the reference's disagree.
func diffLogs(got, want []rec) error {
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			var g, w any = "nothing", "nothing"
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			return fmt.Errorf("observation %d: engine saw %+v, reference %+v", i, g, w)
		}
	}
	return nil
}

// TestQueueOracle diffs the 4-ary slot-addressed queue against the
// container/heap engine it replaced over seeded storms of Schedule, After,
// backdated schedules and Cancel: same-instant ties, cancel-self and
// cancel-other from inside callbacks, cancels of dead handles whose slot
// was reused, Stop mid-run and RunUntil deadlines. Fire order, every
// Cancel and error result, clock, Pending, Fired and the firing event's
// lead must agree after every operation.
func TestQueueOracle(t *testing.T) {
	var tally queueTally
	if err := diffStorms(*oracleCases, &tally); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d storms: %+v", *oracleCases, tally)
	if tally.ties == 0 || tally.cancelSelf == 0 || tally.cancelOtherInside == 0 ||
		tally.deadCancels == 0 || tally.reusedSlots == 0 || tally.stops == 0 ||
		tally.deadlineLeftPending == 0 || tally.pastRejected == 0 || tally.reentrant == 0 ||
		tally.backdated == 0 || tally.backdatedJumps == 0 {
		t.Fatalf("generator lost its edge cases: %+v", tally)
	}
}
