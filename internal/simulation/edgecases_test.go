package simulation

import (
	"math"
	"testing"
	"time"
)

// Engine semantics the original tests did not pin down: canceling an
// event after it fired is a no-op, FIFO tie-breaking holds even when
// callbacks re-schedule at the current timestamp, and Step on an empty
// queue neither fires nor advances time.

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine()
	fired := false
	ev, err := e.Schedule(5, func(time.Duration) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if !e.Step() {
		t.Fatal("Step should fire the scheduled event")
	}
	if !fired {
		t.Fatal("event did not fire")
	}
	if e.Cancel(ev) {
		t.Fatal("Cancel after fire should report false")
	}
	if got := e.Fired(); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
}

func TestCancelSelfDuringFire(t *testing.T) {
	e := NewEngine()
	var ev Event
	var insideResult bool
	ev, err := e.Schedule(3, func(time.Duration) {
		// The event is already off the queue while its callback runs;
		// self-cancel must be a no-op, not a heap corruption.
		insideResult = e.Cancel(ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if insideResult {
		t.Fatal("Cancel from inside the firing callback should report false")
	}
}

func TestFIFOTieBreakWithCancelAndRequeue(t *testing.T) {
	e := NewEngine()
	var got []string
	mk := func(name string) func(time.Duration) {
		return func(time.Duration) { got = append(got, name) }
	}
	// Three events tied at t=5; the middle one is canceled; the first
	// one schedules a fourth event at the same (now-current) timestamp,
	// which must fire after every previously queued tie.
	if _, err := e.Schedule(5, func(now time.Duration) {
		got = append(got, "a")
		if _, err := e.Schedule(now, mk("d")); err != nil {
			t.Errorf("same-timestamp reschedule from callback: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	evB, err := e.Schedule(5, mk("b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Schedule(5, mk("c")); err != nil {
		t.Fatal(err)
	}
	if !e.Cancel(evB) {
		t.Fatal("Cancel of pending event should report true")
	}
	if err := e.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	want := "a,c,d"
	if gotStr := joinStrings(got); gotStr != want {
		t.Fatalf("tie-broken order = %q, want %q", gotStr, want)
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %v, want 5", e.Now())
	}
}

func TestStepEmptyQueue(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on an empty queue should report false")
	}
	if e.Now() != 0 {
		t.Fatalf("Step on empty queue moved the clock to %v", e.Now())
	}
	if e.Fired() != 0 {
		t.Fatalf("Step on empty queue fired %d events", e.Fired())
	}

	// Drain a single event, then Step again: still false, clock frozen
	// at the last fired timestamp.
	if _, err := e.Schedule(7, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	if !e.Step() {
		t.Fatal("Step should fire the pending event")
	}
	if e.Step() {
		t.Fatal("Step after draining should report false")
	}
	if e.Now() != 7 {
		t.Fatalf("clock = %v, want 7 after drain", e.Now())
	}
}

func TestStepAllCanceled(t *testing.T) {
	e := NewEngine()
	ev1, err := e.Schedule(1, func(time.Duration) { t.Error("canceled event fired") })
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := e.Schedule(2, func(time.Duration) { t.Error("canceled event fired") })
	if err != nil {
		t.Fatal(err)
	}
	e.Cancel(ev1)
	e.Cancel(ev2)
	if e.Step() {
		t.Fatal("Step with only canceled events should report false")
	}
	if e.Now() != 0 {
		t.Fatalf("clock = %v, want 0 when nothing fired", e.Now())
	}
}

func joinStrings(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ","
		}
		out += x
	}
	return out
}
