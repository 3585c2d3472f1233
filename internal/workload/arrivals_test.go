package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// TestArrivalsPanicsOnSchedulerError pins the impossible-error
// convention: an engine that rejects an arrival event (here because the
// next gap overflows the virtual clock) must panic loudly, not silently
// stop the stream (the old behavior, which would truncate every
// downstream metric without a trace).
func TestArrivalsPanicsOnSchedulerError(t *testing.T) {
	eng := simulation.NewEngine()
	if err := eng.RunUntil(math.MaxInt64 - 1); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewArrivals past the end of the virtual clock should panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "arrival scheduling failed") {
			t.Fatalf("panic = %v, want arrival-scheduling message", r)
		}
	}()
	_, _ = NewArrivals(eng, rand.New(rand.NewSource(1)),
		ConstantRate(60), func(time.Duration) {})
}

func TestArrivalsValidation(t *testing.T) {
	eng := simulation.NewEngine()
	rng := rand.New(rand.NewSource(1))
	fire := func(time.Duration) {}
	if _, err := NewArrivals(nil, rng, ConstantRate(1), fire); err == nil {
		t.Fatal("nil engine should be rejected")
	}
	if _, err := NewArrivals(eng, nil, ConstantRate(1), fire); err == nil {
		t.Fatal("nil rng should be rejected")
	}
	if _, err := NewArrivals(eng, rng, nil, fire); err == nil {
		t.Fatal("nil rate should be rejected")
	}
	if _, err := NewArrivals(eng, rng, ConstantRate(1), nil); err == nil {
		t.Fatal("nil fire should be rejected")
	}
}

// TestArrivalsNonPositiveRatePanics: a rate curve dipping to zero would
// make the mean gap infinite; the core treats it as a config bug.
func TestArrivalsNonPositiveRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive rate should panic")
		}
	}()
	_, _ = NewArrivals(simulation.NewEngine(), rand.New(rand.NewSource(1)),
		func(time.Duration) float64 { return 0 }, func(time.Duration) {})
}

// TestArrivalsVariableRate: a rate function is sampled at schedule time,
// so a step change in intensity shows up in the arrival counts of the
// surrounding windows.
func TestArrivalsVariableRate(t *testing.T) {
	eng := simulation.NewEngine()
	rate := func(now time.Duration) float64 {
		if now < 30*time.Minute {
			return 600 // 10/s
		}
		return 60 // 1/s
	}
	a, err := NewArrivals(eng, rand.New(rand.NewSource(7)), rate, func(time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	dense := a.Count()
	if err := eng.RunUntil(60 * time.Minute); err != nil {
		t.Fatal(err)
	}
	sparse := a.Count() - dense
	// 30 min at 600/min ≈ 18000; 30 min at 60/min ≈ 1800.
	if dense < 17000 || dense > 19000 {
		t.Fatalf("dense window arrivals = %d, want ~18000", dense)
	}
	if sparse < 1500 || sparse > 2100 {
		t.Fatalf("sparse window arrivals = %d, want ~1800", sparse)
	}
}

// TestArrivalsStopFreezesRNG: after Stop, the pending event must not
// fire the callback or draw further gaps.
func TestArrivalsStopFreezesRNG(t *testing.T) {
	eng := simulation.NewEngine()
	count := 0
	a, err := NewArrivals(eng, rand.New(rand.NewSource(2)), ConstantRate(60),
		func(time.Duration) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	a.Stop()
	frozen := count
	if err := eng.RunUntil(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if count != frozen || a.Count() != frozen {
		t.Fatalf("arrivals after Stop: count=%d frozen=%d", count, frozen)
	}
}

// TestArrivalsSteadyStateAllocs pins the arrival tick: drawing the gap,
// firing and scheduling the next arrival reuse the callback bound in
// NewArrivals and the engine's pooled event slot.
func TestArrivalsSteadyStateAllocs(t *testing.T) {
	eng := simulation.NewEngine()
	if _, err := NewArrivals(eng, rand.New(rand.NewSource(1)), ConstantRate(60), func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	eng.Step() // warm the event slab
	if avg := testing.AllocsPerRun(100, func() { eng.Step() }); avg != 0 {
		t.Fatalf("one arrival allocates %v objects, want 0", avg)
	}
}
