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
	if _, err := eng.NewTicker(time.Second, false, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// A completion flag that never flips — the co-allocation experiment's
// wait loop had no bound and spun forever on it — is an error once the
// next slice would pass the limit.
func TestSettleReportsAStallInsteadOfHanging(t *testing.T) {
	eng := tickingEngine(t)
	completed := false
	err := settle(eng, eng.Now(), 30*time.Minute, stallLimit, "co-allocated download", func() bool { return completed })
	if err == nil || !strings.Contains(err.Error(), "co-allocated download stalled") {
		t.Fatalf("settle = %v, want a stall error", err)
	}
	if eng.Now() != stallLimit {
		t.Fatalf("clock = %v, want the last whole slice inside the %v limit", eng.Now(), stallLimit)
	}
}

// The clock stops on the first slice boundary, counted from `from`, at
// which done holds: slice lengths are part of every experiment's output.
func TestSettleStopsOnASliceBoundary(t *testing.T) {
	eng := tickingEngine(t)
	if err := eng.RunUntil(7 * time.Minute); err != nil {
		t.Fatal(err)
	}
	flipAt := 25 * time.Minute
	err := settle(eng, 3*time.Minute, 10*time.Minute, 100*time.Hour, "transfer", func() bool { return eng.Now() >= flipAt })
	if err != nil {
		t.Fatal(err)
	}
	if want := 33 * time.Minute; eng.Now() != want {
		t.Fatalf("clock = %v, want %v (from + 3 slices)", eng.Now(), want)
	}
	// Already done: no slice runs.
	if err := settle(eng, eng.Now(), time.Hour, stallLimit, "noop", func() bool { return true }); err != nil || eng.Now() != 33*time.Minute {
		t.Fatalf("settle on a finished run: err=%v clock=%v", err, eng.Now())
	}
}
