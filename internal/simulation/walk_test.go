package simulation

import (
	"math/rand"
	"testing"
	"time"
)

func TestNewWalkValidation(t *testing.T) {
	e := NewEngine()
	var v float64
	bad := []WalkAxis{
		{V: &v, Mean: -0.1, Reversion: 0.5, Max: 1},
		{V: &v, Mean: 0.5, Volatility: -1, Reversion: 0.5, Max: 1},
		{V: &v, Mean: 0.5, Reversion: 0, Max: 1},
		{V: &v, Mean: 0.5, Reversion: 1.5, Max: 1},
		{V: &v, Mean: 0.9, Reversion: 0.5, Max: 0.8}, // would start above its own clamp
	}
	for i, a := range bad {
		if _, err := NewWalk(e, time.Second, 1, nil, a); err == nil {
			t.Fatalf("axis %d accepted: %+v", i, a)
		}
	}
	if _, err := NewWalk(e, 0, 1, nil); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := NewWalk(e, time.Second, 1, nil, WalkAxis{V: &v, Mean: 0.8, Reversion: 0.5, Max: 0.8}); err != nil {
		t.Fatalf("mean at its max rejected: %v", err)
	}
}

// A walk builds its RNG at its first step, and the draws are those of the
// seed's source from the start.
func TestWalkSeedsAtFirstStep(t *testing.T) {
	e := NewEngine()
	v := 0.5
	w, err := NewWalk(e, time.Second, 9, nil, WalkAxis{V: &v, Mean: 0.5, Reversion: 0.5, Volatility: 0.1, Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(time.Second - 1); err != nil {
		t.Fatal(err)
	}
	w.Advance()
	if w.rng != nil {
		t.Fatal("a walk with no step due built its RNG")
	}
	if err := e.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	w.Advance()
	if w.rng == nil {
		t.Fatal("three steps applied without an RNG")
	}
	ref, want := rand.New(rand.NewSource(9)), 0.5
	for i := 0; i < 3; i++ {
		want += 0.5*(0.5-want) + ref.NormFloat64()*0.1
		want = min(max(want, 0), 1)
	}
	if v != want {
		t.Fatalf("after three steps = %v, want %v", v, want)
	}
}

// Within an instant a backdated event fires after the events scheduled
// before its as-of instant and before those scheduled at or after it.
func TestScheduleAsOfOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	add := func(name string) Func {
		return func(time.Duration) { order = append(order, name) }
	}
	at := 10 * time.Second
	mustSchedule(t, e, at, add("early-at-0"))
	mustSchedule(t, e, 2*time.Second, func(time.Duration) { mustSchedule(t, e, at, add("at-2")) })
	mustSchedule(t, e, 4*time.Second, func(time.Duration) { mustSchedule(t, e, at, add("at-4")) })
	mustSchedule(t, e, 6*time.Second, func(time.Duration) {
		mustSchedule(t, e, at, add("at-6"))
		e.scheduleAsOf(at, 4*time.Second, add("backdated-to-4"))
		e.scheduleAsOf(at, 2*time.Second, add("backdated-to-2"))
		if e.lead != 6*time.Second {
			t.Errorf("lead inside an event scheduled at 0 for 6s = %v", e.lead)
		}
	})
	if err := e.RunUntil(at); err != nil {
		t.Fatal(err)
	}
	want := []string{"early-at-0", "backdated-to-2", "at-2", "backdated-to-4", "at-4", "at-6"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if e.lead != 0 || len(e.early) != 0 {
		t.Fatalf("after the run: lead %v, %d backdated listed", e.lead, len(e.early))
	}
	// A canceled backdated event leaves the list with its slot.
	ev := e.scheduleAsOf(at+time.Second, at, add("canceled"))
	if !e.Cancel(ev) || len(e.early) != 0 || e.Pending() != 0 {
		t.Fatalf("cancel of a backdated event: %d listed, %d pending", len(e.early), e.Pending())
	}
}

// Stop leaves the clock at the stopping event, not at the deadline past
// the events still pending.
func TestRunUntilStoppedKeepsClock(t *testing.T) {
	e := NewEngine()
	mustSchedule(t, e, 1, func(time.Duration) { e.Stop() })
	mustSchedule(t, e, 2, func(time.Duration) {})
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 1 || e.Pending() != 1 {
		t.Fatalf("stopped at %v with %d pending, want 1 with 1", e.Now(), e.Pending())
	}
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 5 || e.Pending() != 0 {
		t.Fatalf("resumed to %v with %d pending, want 5 with 0", e.Now(), e.Pending())
	}
}

// periodic runs fn and reschedules itself period later: a ticker whose
// first tick the test places, one period out when scheduled with
// AfterHandler(period, p).
type periodic struct {
	e      *Engine
	period time.Duration
	fn     func(time.Duration)
}

func (p *periodic) Fire(now time.Duration) {
	p.fn(now)
	if _, err := p.e.AfterHandler(p.period, p); err != nil {
		panic(err)
	}
}

// An awake walk and a lazy one of the same seed, each beside a ticker
// replaying it, agree with the ticker at every read: below, at and above
// one period ahead, and outside any event, while the first walk sleeps
// and wakes at instants on and off its grid.
func TestWalkWakeMatchesTicker(t *testing.T) {
	const period = time.Second
	e := NewEngine()
	axis := func(v *float64) WalkAxis {
		return WalkAxis{V: v, Mean: 0.3, Reversion: 0.2, Volatility: 0.1, Max: 0.9}
	}
	var awake, lazy, ref float64 = 0.3, 0.3, 0.3
	steps := 0
	wa, err := NewWalk(e, period, 5, func() { steps++ }, axis(&awake))
	if err != nil {
		t.Fatal(err)
	}
	wl, err := NewWalk(e, period, 5, nil, axis(&lazy))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	if _, err := e.AfterHandler(period, &periodic{e, period, func(time.Duration) {
		ref += 0.2*(0.3-ref) + rng.NormFloat64()*0.1
		ref = min(max(ref, 0), 0.9)
	}}); err != nil {
		t.Fatal(err)
	}
	sleeping := true
	reads := 0
	check := func(lead time.Duration) {
		reads++
		wl.Advance()
		if sleeping {
			wa.Advance()
		}
		if lazy != ref || awake != ref {
			t.Errorf("read at %v scheduled %v ahead: lazy %v, awake %v (sleeping %v), ticker %v", e.Now(), lead, lazy, awake, sleeping, ref)
		}
	}
	// Reads one period ahead come from a same-period chain younger than
	// the walks, the one such reader the tie rule covers.
	if _, err := e.AfterHandler(period, &periodic{e, period, func(time.Duration) { check(period) }}); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		at := time.Duration(r.Intn(40*4)) * period / 4
		lead := []time.Duration{period / 4, period / 2, 3 * period / 2, 3 * period}[r.Intn(4)]
		from := at - lead
		if from < 0 {
			continue
		}
		mustSchedule(t, e, from, func(time.Duration) {
			mustSchedule(t, e, at, func(time.Duration) { check(lead) })
		})
	}
	for i := 0; i < 60; i++ {
		at := time.Duration(r.Intn(40*4)) * period / 4
		mustSchedule(t, e, at, func(time.Duration) {
			if sleeping {
				wa.Wake()
			} else {
				wa.Sleep()
			}
			sleeping = !sleeping
		})
	}
	for end := period / 3; end < 40*period; end += period / 3 {
		if err := e.RunUntil(end); err != nil {
			t.Fatal(err)
		}
		check(0)
	}
	if steps == 0 || reads < 400 {
		t.Fatalf("%d awake steps, %d reads", steps, reads)
	}
}

func mustSchedule(t *testing.T, e *Engine, at time.Duration, fn func(time.Duration)) {
	t.Helper()
	if _, err := e.Schedule(at, fn); err != nil {
		t.Fatal(err)
	}
}
