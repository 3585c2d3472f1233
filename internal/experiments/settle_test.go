package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// tickingEngine never drains, like a world with its dynamics running.
func tickingEngine(t *testing.T) *simulation.Engine {
	t.Helper()
	eng := simulation.NewEngine()
	if _, err := eng.NewTicker(time.Second, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// A completion flag that never flips — the co-allocation experiment's
// wait loop had no bound and spun forever on it — is an error at the
// first event past the limit.
func TestSettleReportsAStallInsteadOfHanging(t *testing.T) {
	eng := tickingEngine(t)
	const limit = 10 * time.Minute
	completed := false
	err := settle(eng, limit, "co-allocated download", func() bool { return completed })
	if err == nil || !strings.Contains(err.Error(), "co-allocated download stalled") {
		t.Fatalf("settle = %v, want a stall error", err)
	}
	if want := limit + time.Second; eng.Now() != want {
		t.Fatalf("clock = %v, want %v (the first tick past the limit)", eng.Now(), want)
	}
}

// The clock stops at the instant of the event that makes done true, not
// at a later boundary, and no event after it fires.
func TestSettleStopsAtTheCompletingEvent(t *testing.T) {
	eng := tickingEngine(t)
	if err := eng.RunUntil(7 * time.Minute); err != nil {
		t.Fatal(err)
	}
	flipAt := 25*time.Minute + 500*time.Millisecond
	got := false
	if _, err := eng.Schedule(flipAt, func(time.Duration) { got = true }); err != nil {
		t.Fatal(err)
	}
	before := eng.Fired()
	if err := settle(eng, 100*time.Hour, "transfer", func() bool { return got }); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != flipAt {
		t.Fatalf("clock = %v, want %v (the completing event)", eng.Now(), flipAt)
	}
	// The ticks at 7m01s .. 25m00s, then the completing event.
	if fired, want := eng.Fired()-before, uint64(18*60+1); fired != want {
		t.Fatalf("fired %d events, want %d", fired, want)
	}
	// Already done: nothing fires.
	before = eng.Fired()
	if err := settle(eng, stallLimit, "noop", func() bool { return true }); err != nil || eng.Fired() != before || eng.Now() != flipAt {
		t.Fatalf("settle on a finished run: err=%v fired=%d clock=%v", err, eng.Fired()-before, eng.Now())
	}
}

// A world with nothing left to fire and done still false can never
// finish: settle says so at once, at the last event's instant, instead of
// advancing an idle clock to the limit.
func TestSettleReportsADrainedQueue(t *testing.T) {
	eng := simulation.NewEngine()
	if _, err := eng.Schedule(3*time.Second, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	err := settle(eng, stallLimit, "planet-scale flows", func() bool { return false })
	if err == nil || !strings.Contains(err.Error(), "planet-scale flows stalled") {
		t.Fatalf("settle = %v, want a stall error", err)
	}
	if eng.Now() != 3*time.Second || eng.Fired() != 1 {
		t.Fatalf("clock = %v after %d events, want 3s after 1", eng.Now(), eng.Fired())
	}
}
