package simulation

import (
	"testing"
	"time"
)

// TestEventRecycledAfterCancel pins the slab behavior: a canceled event's
// slot is reused by the next Schedule call under a new generation, so the
// old handle stays dead.
func TestEventRecycledAfterCancel(t *testing.T) {
	e := NewEngine()
	fn := func(time.Duration) {}
	ev1, err := e.Schedule(time.Second, fn)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Cancel(ev1) {
		t.Fatal("Cancel reported not pending")
	}
	ev2, err := e.Schedule(2*time.Second, fn)
	if err != nil {
		t.Fatal(err)
	}
	if ev1.slot != ev2.slot {
		t.Fatal("canceled event's slot was not recycled by the next Schedule")
	}
	if ev1 == ev2 {
		t.Fatal("recycled slot kept its generation: the dead handle is live again")
	}
	if e.Cancel(ev1) {
		t.Fatal("Cancel of the dead handle canceled the slot's new event")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	if !e.Cancel(ev2) {
		t.Fatal("the live handle did not cancel")
	}
}

// TestEventRecycledAfterFire pins that a fired event's slot returns to
// the slab, that a Cancel issued on the firing event from inside its own
// callback is a no-op, and that the fired handle cannot cancel the slot's
// next occupant.
func TestEventRecycledAfterFire(t *testing.T) {
	e := NewEngine()
	var fired Event
	var cancelResult *bool
	ev, err := e.Schedule(time.Second, func(time.Duration) {
		r := e.Cancel(fired) // self-cancel mid-flight: must be a no-op
		cancelResult = &r
	})
	if err != nil {
		t.Fatal(err)
	}
	fired = ev
	if !e.Step() {
		t.Fatal("no event fired")
	}
	if cancelResult == nil || *cancelResult {
		t.Fatal("canceling the firing event from its own callback should report false")
	}
	ev2, err := e.Schedule(2*time.Second, func(time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	if ev2.slot != ev.slot {
		t.Fatal("fired event's slot was not recycled by the next Schedule")
	}
	if e.Cancel(ev) || e.Pending() != 1 {
		t.Fatal("the fired handle canceled the slot's new event")
	}
}

// warmEngine returns an engine holding pending far-future events, its
// slab, free list and heap grown past what the pins below need.
func warmEngine(t *testing.T, pending int) *Engine {
	t.Helper()
	e := NewEngine()
	fn := func(time.Duration) {}
	var evs []Event
	for i := 0; i < pending+8; i++ {
		ev, err := e.Schedule(time.Hour+time.Duration(i), fn)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	for _, ev := range evs[pending:] {
		e.Cancel(ev)
	}
	return e
}

// TestScheduleFireSteadyStateAllocs pins the allocation-free event loop:
// a schedule/fire cycle against a warm slab allocates nothing.
func TestScheduleFireSteadyStateAllocs(t *testing.T) {
	e := warmEngine(t, 64)
	fn := func(time.Duration) {}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := e.Schedule(e.Now(), fn); err != nil {
			t.Fatal(err)
		}
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("steady-state schedule/fire allocates %v objects/op, want 0", avg)
	}
}

// counter is a record that is its own event's receiver.
type counter struct{ n int }

func (c *counter) Fire(time.Duration) { c.n++ }

// TestScheduleHandlerFireSteadyStateAllocs pins the receiver entry point:
// scheduling a pointer record and firing it allocates nothing, since the
// slot stores the record itself and no closure is built.
func TestScheduleHandlerFireSteadyStateAllocs(t *testing.T) {
	e := warmEngine(t, 64)
	c := new(counter)
	avg := testing.AllocsPerRun(100, func() {
		if _, err := e.ScheduleHandler(e.Now(), c); err != nil {
			t.Fatal(err)
		}
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("steady-state ScheduleHandler/fire allocates %v objects/op, want 0", avg)
	}
	if c.n != 101 {
		t.Fatalf("the receiver fired %d times, want 101", c.n)
	}
}

// TestScheduleCancelSteadyStateAllocs pins the other way an event dies.
func TestScheduleCancelSteadyStateAllocs(t *testing.T) {
	e := warmEngine(t, 64)
	fn := func(time.Duration) {}
	avg := testing.AllocsPerRun(100, func() {
		ev, err := e.Schedule(time.Minute, fn)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Cancel(ev) {
			t.Fatal("pending event did not cancel")
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state schedule/cancel allocates %v objects/op, want 0", avg)
	}
}

// TestTickerPeriodAllocs pins one ticker period — fire, callback,
// reschedule — at zero allocations: the ticker is its event's receiver.
func TestTickerPeriodAllocs(t *testing.T) {
	e := warmEngine(t, 64)
	ticks := 0
	if _, err := e.NewTicker(time.Second, func(time.Duration) { ticks++ }); err != nil {
		t.Fatal(err)
	}
	e.Step()
	avg := testing.AllocsPerRun(100, func() { e.Step() })
	if avg != 0 {
		t.Fatalf("one ticker period allocates %v objects/op, want 0", avg)
	}
	if ticks < 100 {
		t.Fatalf("ticker fired %d times, want >= 100", ticks)
	}
}
