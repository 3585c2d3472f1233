package simulation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	for i, d := range []time.Duration{30, 10, 20} {
		i := i
		if _, err := e.Schedule(d, func(time.Duration) { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := e.Schedule(5, func(time.Duration) { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-time events not FIFO: %v", got)
	}
}

// TestSameInstantOrderAcrossEntryPoints: the events of one instant fire in
// one order whichever entry point queued them — Schedule, After,
// ScheduleHandler, AfterHandler or a backdated scheduleAsOf — by the
// instant they were scheduled (as of), a backdated one first, then in
// scheduling order. The entry points share one slot type and one heap, so
// a func and a receiver scheduled back to back cannot swap.
func TestSameInstantOrderAcrossEntryPoints(t *testing.T) {
	e := NewEngine()
	var got []string
	rec := func(name string) Func { return func(time.Duration) { got = append(got, name) } }
	const at = 10 * time.Second
	schedule := func(name string, how int) {
		var err error
		switch how {
		case 0:
			_, err = e.Schedule(at, rec(name))
		case 1:
			_, err = e.ScheduleHandler(at, rec(name))
		case 2:
			_, err = e.After(at-e.Now(), rec(name))
		case 3:
			_, err = e.AfterHandler(at-e.Now(), rec(name))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		schedule(fmt.Sprintf("t0-%d", i), i%4)
	}
	if _, err := e.Schedule(time.Second, func(time.Duration) {
		schedule("t1-0", 1)
		e.scheduleAsOf(at, time.Second, rec("asof1-a"))
		schedule("t1-1", 0)
		e.scheduleAsOf(at, 0, rec("asof0"))
		schedule("t1-2", 3)
		e.scheduleAsOf(at, time.Second, rec("asof1-b"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(at); err != nil {
		t.Fatal(err)
	}
	want := []string{"asof0", "t0-0", "t0-1", "t0-2", "t0-3", "t0-4", "t0-5", "t0-6", "t0-7",
		"asof1-a", "asof1-b", "t1-0", "t1-1", "t1-2"}
	if !slices.Equal(got, want) {
		t.Fatalf("same-instant order:\n got %v\nwant %v", got, want)
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := NewEngine()
	if _, err := e.Schedule(10, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Schedule(5, func(time.Duration) {}); err == nil {
		t.Fatal("scheduling in the past should fail")
	}
}

func TestNilFunctionRejected(t *testing.T) {
	e := NewEngine()
	if _, err := e.Schedule(0, nil); err == nil {
		t.Fatal("nil event function should be rejected")
	}
	if _, err := e.ScheduleHandler(0, nil); err == nil {
		t.Fatal("nil event handler should be rejected")
	}
}

func TestAfterNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	if _, err := e.After(-5, func(time.Duration) { fired = true }); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event with negative delay never fired")
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev, err := e.Schedule(10, func(time.Duration) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(ev) {
		t.Fatal("double Cancel should report false")
	}
	if err := e.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after cancel and run, want 0", e.Pending())
	}
}

func TestCancelNil(t *testing.T) {
	e := NewEngine()
	if e.Cancel(Event{}) {
		t.Fatal("Cancel of the zero handle should be a no-op returning false")
	}
	// The zero handle stays dead once slot 0 is in use.
	if _, err := e.Schedule(1, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	if e.Cancel(Event{}) || e.Pending() != 1 {
		t.Fatal("Cancel of the zero handle removed a live event")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	for _, d := range []time.Duration{10, 20, 30, 40} {
		d := d
		if _, err := e.Schedule(d, func(now time.Duration) { fired = append(fired, now) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events before deadline, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %v after RunUntil(25)", e.Now())
	}
	if err := e.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
}

func TestStopInsideEvent(t *testing.T) {
	e := NewEngine()
	count := 0
	if _, err := e.Schedule(1, func(time.Duration) { count++; e.Stop() }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Schedule(2, func(time.Duration) { count++ }); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count = %d after Stop, want 1", count)
	}
	// The second event is still pending and can be resumed.
	if err := e.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count = %d after resume, want 2", count)
	}
}

func TestReentrantRunRejected(t *testing.T) {
	e := NewEngine()
	var inner error
	if _, err := e.Schedule(1, func(time.Duration) { inner = e.RunUntil(math.MaxInt64) }); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if inner != ErrReentrantRun {
		t.Fatalf("reentrant Run error = %v, want ErrReentrantRun", inner)
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	if _, err := e.Schedule(5, func(now time.Duration) {
		times = append(times, now)
		if _, err := e.After(5, func(now time.Duration) { times = append(times, now) }); err != nil {
			t.Errorf("nested schedule: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 5 || times[1] != 10 {
		t.Fatalf("times = %v, want [5 10]", times)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []time.Duration
	if _, err := e.NewTicker(10, func(now time.Duration) { ticks = append(ticks, now) }); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(35); err != nil {
		t.Fatal(err)
	}
	if want := []time.Duration{0, 10, 20, 30}; !slices.Equal(ticks, want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
}

// A ticker's first tick is at the instant it is created, not one period
// later.
func TestTickerImmediate(t *testing.T) {
	e := NewEngine()
	var ticks []time.Duration
	if _, err := e.Schedule(7, func(time.Duration) {
		if _, err := e.NewTicker(10, func(now time.Duration) { ticks = append(ticks, now) }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if want := []time.Duration{7, 17}; !slices.Equal(ticks, want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
}

// A ticker never stops on its own: a callback that stops the engine ends
// RunUntil after that tick, with the next tick still queued.
func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	if _, err := e.NewTicker(1, func(time.Duration) {
		count++
		if count == 3 {
			e.Stop()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if count != 3 || e.Now() != 2 || e.Pending() != 1 {
		t.Fatalf("count = %d at %v with %d pending, want 3 at 2 with the next tick", count, e.Now(), e.Pending())
	}
}

func TestTickerSetPaused(t *testing.T) {
	e := NewEngine()
	var ticks []time.Duration
	tk, err := e.NewTicker(10, func(now time.Duration) { ticks = append(ticks, now) })
	if err != nil {
		t.Fatal(err)
	}
	// Pause over [25, 45): the ticks at 30 and 40 are skipped, but the
	// schedule stays on the same grid, so 50 fires as usual.
	if _, err := e.Schedule(25, func(time.Duration) { tk.SetPaused(true) }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Schedule(45, func(time.Duration) { tk.SetPaused(false) }); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(55); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 10, 20, 50}
	if !slices.Equal(ticks, want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
}

func TestTickerInvalidPeriod(t *testing.T) {
	e := NewEngine()
	if _, err := e.NewTicker(0, func(time.Duration) {}); err == nil {
		t.Fatal("zero period should be rejected")
	}
	if _, err := e.NewTicker(-1, func(time.Duration) {}); err == nil {
		t.Fatal("negative period should be rejected")
	}
	if _, err := e.NewTicker(1, nil); err == nil {
		t.Fatal("nil ticker fn should be rejected")
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		if _, err := e.Schedule(time.Duration(i), func(time.Duration) {}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", e.Fired())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

func TestScheduledCounter(t *testing.T) {
	e := NewEngine()
	a, err := e.Schedule(1, func(time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Schedule(2, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	if e.Scheduled() != 2 {
		t.Fatalf("Scheduled = %d after two schedules, want 2", e.Scheduled())
	}
	// A cancel paired with a schedule leaves Fired+Pending where it was,
	// but not the sequence.
	e.Cancel(a)
	if _, err := e.Schedule(1, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	if e.Scheduled() != 3 {
		t.Fatalf("Scheduled = %d after a cancel and a schedule, want 3", e.Scheduled())
	}
	if err := e.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if e.Scheduled() != 3 || e.Fired() != 2 {
		t.Fatalf("after the run: Scheduled = %d, Fired = %d, want 3 and 2", e.Scheduled(), e.Fired())
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order, and the number fired equals the number scheduled minus
// the number canceled.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		count := int(n%64) + 1
		var fired []time.Duration
		canceled := 0
		var evs []Event
		for i := 0; i < count; i++ {
			at := time.Duration(rng.Intn(1000))
			ev, err := e.Schedule(at, func(now time.Duration) { fired = append(fired, now) })
			if err != nil {
				return false
			}
			evs = append(evs, ev)
		}
		for _, ev := range evs {
			if rng.Intn(4) == 0 {
				if e.Cancel(ev) {
					canceled++
				}
			}
		}
		if err := e.RunUntil(math.MaxInt64); err != nil {
			return false
		}
		if len(fired) != count-canceled {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil never advances the clock past its deadline when events
// beyond the deadline exist, and never fires those events.
func TestPropertyRunUntilDeadline(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		deadline := time.Duration(rng.Intn(500) + 100)
		beyond := 0
		firedBeyond := false
		for i := 0; i < 50; i++ {
			at := time.Duration(rng.Intn(1000))
			if at > deadline {
				beyond++
			}
			if _, err := e.Schedule(at, func(now time.Duration) {
				if now > deadline {
					firedBeyond = true
				}
			}); err != nil {
				return false
			}
		}
		if err := e.RunUntil(deadline); err != nil {
			return false
		}
		return !firedBeyond && e.Now() == deadline && e.Pending() == beyond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
