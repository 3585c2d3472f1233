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

// TestArrivalsNonPositiveRatePanics: a rate curve dipping to zero mid-run
// would make the mean gap infinite; the core treats it as a bad curve.
func TestArrivalsNonPositiveRatePanics(t *testing.T) {
	eng := simulation.NewEngine()
	rate := func(now time.Duration) float64 {
		if now < time.Minute {
			return 60
		}
		return 0
	}
	if _, err := NewArrivals(eng, rand.New(rand.NewSource(1)), rate, func(time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a rate that goes non-positive mid-run should panic")
		}
	}()
	_ = eng.RunUntil(time.Hour)
}

// TestArrivalsNonPositiveStartRateIsAnError: a rate that is not positive
// when the process starts is the caller's configuration, so NewArrivals
// returns an error and schedules nothing.
func TestArrivalsNonPositiveStartRateIsAnError(t *testing.T) {
	eng := simulation.NewEngine()
	for _, perMinute := range []float64{0, -1, math.NaN()} {
		if _, err := NewArrivals(eng, rand.New(rand.NewSource(1)), ConstantRate(perMinute), func(time.Duration) {}); err == nil {
			t.Fatalf("rate %v: NewArrivals accepted it", perMinute)
		}
	}
	if n := eng.Pending(); n != 0 {
		t.Fatalf("rejected processes left %d events scheduled", n)
	}
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

// TestArrivalsInterArrivalExponential checks the arrival process is
// actually exponential, not just roughly the right rate: the mean gap
// matches 1/rate and the coefficient of variation is ~1 (an
// exponential's signature; a uniform or constant gap would fail).
func TestArrivalsInterArrivalExponential(t *testing.T) {
	eng := simulation.NewEngine()
	var arrivals []time.Duration
	if _, err := NewArrivals(eng, rand.New(rand.NewSource(11)), ConstantRate(600),
		func(now time.Duration) { arrivals = append(arrivals, now) }); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) < 1000 {
		t.Fatalf("only %d arrivals", len(arrivals))
	}
	var gaps []float64
	prev := time.Duration(0)
	for _, at := range arrivals {
		gaps = append(gaps, (at - prev).Seconds())
		prev = at
	}
	var sum float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / float64(len(gaps))
	if math.Abs(mean-0.1) > 0.01 { // 600/min = 10/s: mean gap 100ms
		t.Errorf("mean inter-arrival = %.4fs, want ~0.1s", mean)
	}
	var sq float64
	for _, g := range gaps {
		sq += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(sq/float64(len(gaps))) / mean
	if cv < 0.9 || cv > 1.1 {
		t.Errorf("coefficient of variation = %.3f, want ~1 (exponential)", cv)
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
