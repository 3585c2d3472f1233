package nws

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLastValue(t *testing.T) {
	f := &lastValue{}
	if _, ok := f.Predict(); ok {
		t.Fatal("empty last should not predict")
	}
	f.Update(3)
	f.Update(7)
	v, ok := f.Predict()
	if !ok || v != 7 {
		t.Fatalf("last = %v, %v", v, ok)
	}
	if f.Name() != "last" {
		t.Fatalf("name = %q", f.Name())
	}
}

func TestRunningMean(t *testing.T) {
	f := &runningMean{}
	if _, ok := f.Predict(); ok {
		t.Fatal("empty mean should not predict")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		f.Update(v)
	}
	v, ok := f.Predict()
	if !ok || v != 2.5 {
		t.Fatalf("run_mean = %v, %v", v, ok)
	}
}

func TestSlidingMean(t *testing.T) {
	f := newSlidingMean(3)
	for _, v := range []float64{100, 1, 2, 3} { // 100 evicted
		f.Update(v)
	}
	v, ok := f.Predict()
	if !ok || v != 2 {
		t.Fatalf("sw_mean = %v, %v", v, ok)
	}
	if f.Name() != "sw_mean(3)" {
		t.Fatalf("name = %q", f.Name())
	}
}

func TestSlidingMedian(t *testing.T) {
	f := newSlidingMedian(5)
	for _, v := range []float64{1, 100, 2, 3, 2} {
		f.Update(v)
	}
	v, ok := f.Predict()
	if !ok || v != 2 {
		t.Fatalf("sw_median = %v, %v (robust to the 100 outlier)", v, ok)
	}
	g := newSlidingMedian(4)
	for _, v := range []float64{1, 2, 3, 4} {
		g.Update(v)
	}
	v, _ = g.Predict()
	if v != 2.5 {
		t.Fatalf("even median = %v", v)
	}
}

func TestTrimmedMean(t *testing.T) {
	f := newTrimmedMean(5, 0.2)
	for _, v := range []float64{1000, 10, 10, 10, -1000} {
		f.Update(v)
	}
	v, ok := f.Predict()
	if !ok || v != 10 {
		t.Fatalf("trim_mean = %v, %v (should drop both outliers)", v, ok)
	}
}

func TestEWMA(t *testing.T) {
	f := newEWMA(0.5)
	if _, ok := f.Predict(); ok {
		t.Fatal("empty ewma should not predict")
	}
	f.Update(10)
	f.Update(20)
	v, ok := f.Predict()
	if !ok || v != 15 {
		t.Fatalf("ewma = %v, %v", v, ok)
	}
	if f.Name() != "ewma(0.50)" {
		t.Fatalf("name = %q", f.Name())
	}
}

func TestDefaultForecastersDistinctNames(t *testing.T) {
	fs := DefaultForecasters()
	if len(fs) < 10 {
		t.Fatalf("only %d default forecasters", len(fs))
	}
	seen := map[string]bool{}
	for _, f := range fs {
		if seen[f.Name()] {
			t.Fatalf("duplicate forecaster name %q", f.Name())
		}
		seen[f.Name()] = true
	}
}

func TestBankValidation(t *testing.T) {
	if _, err := NewBank([]Forecaster{}); err == nil {
		t.Fatal("empty bank should be rejected")
	}
	if _, err := NewBank([]Forecaster{nil}); err == nil {
		t.Fatal("nil forecaster should be rejected")
	}
	if _, err := NewBank([]Forecaster{&lastValue{}, &lastValue{}}); err == nil {
		t.Fatal("duplicate names should be rejected")
	}
	if _, err := NewBank(nil); err != nil {
		t.Fatal(err)
	}
}

func TestBankNoForecastBeforeData(t *testing.T) {
	b, _ := NewBank(nil)
	if _, err := b.Forecast(); err != ErrNoForecast {
		t.Fatalf("err = %v, want ErrNoForecast", err)
	}
}

func TestBankConstantSeries(t *testing.T) {
	b, _ := NewBank(nil)
	for i := 0; i < 100; i++ {
		b.Update(42)
	}
	f, err := b.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	if f.Value != 42 {
		t.Fatalf("constant forecast = %+v", f)
	}
	if f.MSE != 0 {
		t.Fatalf("constant series should have zero error: %+v", f)
	}
	if f.N != 100 {
		t.Fatalf("N = %d", f.N)
	}
}

func TestBankPrefersSmootherOnNoisySeries(t *testing.T) {
	// Alternating values around a fixed mean: "last" is maximally wrong,
	// any averaging model is better; the bank must not pick "last".
	b, _ := NewBank(nil)
	var vals []float64
	for i := 0; i < 200; i++ {
		v := 10.0
		if i%2 == 0 {
			v = 20.0
		}
		vals = append(vals, v)
		b.Update(v)
	}
	f, err := b.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	if f.Expert == "last" {
		t.Fatalf("bank picked 'last' on an alternating series: %+v", f)
	}
	if last := expertMSE(t, "last", vals); last <= f.MSE {
		t.Fatalf("winner %q (mse %.3f) not better than last (mse %.3f)", f.Expert, f.MSE, last)
	}
	if f.Value < 10 || f.Value > 20 {
		t.Fatalf("forecast %v outside observed range", f.Value)
	}
}

func TestBankAdaptsToLevelShift(t *testing.T) {
	// After a persistent level shift, responsive experts (last/high-gain
	// EWMA/short windows) should beat the all-history mean.
	b, _ := NewBank(nil)
	var vals []float64
	for i := 0; i < 200; i++ {
		v := 10.0
		if i >= 100 {
			v = 100
		}
		vals = append(vals, v)
		b.Update(v)
	}
	f, err := b.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Value-100) > 5 {
		t.Fatalf("post-shift forecast = %v, want near 100 (expert %s)", f.Value, f.Expert)
	}
	if f.MSE >= expertMSE(t, "run_mean", vals) {
		t.Fatal("winner should beat the all-history mean after a level shift")
	}
}

func TestBankRejectsNaNAndInf(t *testing.T) {
	b, _ := NewBank(nil)
	b.Update(10)
	b.Update(math.NaN())
	b.Update(math.Inf(1))
	f, err := b.Forecast()
	if err != nil || f.Value != 10 || f.N != 1 {
		t.Fatalf("forecast = %+v, %v; want value 10 from N = 1 (NaN/Inf dropped)", f, err)
	}
}

// TestForecastUnscoredMSE: after one sample no expert has been scored
// (predictions are scored against the *next* value), so every error is
// +Inf and the first expert able to predict wins.
func TestForecastUnscoredMSE(t *testing.T) {
	b, _ := NewBank(nil)
	b.Update(5)
	f, err := b.Forecast()
	if err != nil || !math.IsInf(f.MSE, 1) || f.Expert != "last" || f.Value != 5 {
		t.Fatalf("forecast = %+v, %v; want last's 5 with MSE +Inf", f, err)
	}
}

// expertMSE replays vals through a fresh default expert and returns its
// mean squared one-step error, scored the way the bank scores it.
func expertMSE(t *testing.T, name string, vals []float64) float64 {
	t.Helper()
	for _, f := range DefaultForecasters() {
		if f.Name() != name {
			continue
		}
		sum, n := 0.0, 0
		for _, v := range vals {
			if p, ok := f.Predict(); ok {
				sum += (p - v) * (p - v)
				n++
			}
			f.Update(v)
		}
		return sum / float64(n)
	}
	t.Fatalf("no default expert %q", name)
	return 0
}

// TestBankExpertsMatchLoneExperts: the bank's per-expert scores are, bit
// for bit, what each default expert scores when it runs alone over the
// same seeded trace — the forecaster ablation's table reads them.
func TestBankExpertsMatchLoneExperts(t *testing.T) {
	for _, n := range []int{30, 400} {
		rng := rand.New(rand.NewSource(int64(n)))
		trace := make([]float64, n)
		level := 50.0
		for i := range trace {
			level += rng.NormFloat64()
			trace[i] = level + 5*rng.NormFloat64()
		}
		bank, err := NewBank(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range trace {
			bank.Update(v)
		}
		got := bank.Experts()
		lone := DefaultForecasters()
		if len(got) != len(lone) {
			t.Fatalf("n=%d: %d scores for %d experts", n, len(got), len(lone))
		}
		for i, f := range lone {
			want := ExpertScore{Name: f.Name(), MSE: math.Inf(1)}
			sum := 0.0
			for _, v := range trace {
				if p, ok := f.Predict(); ok {
					d := p - v
					sum += d * d
					want.Scored++
				}
				f.Update(v)
			}
			if want.Scored > 0 {
				want.MSE = sum / float64(want.Scored)
			}
			if g := got[i]; g.Name != want.Name || g.Scored != want.Scored || math.Float64bits(g.MSE) != math.Float64bits(want.MSE) {
				t.Errorf("n=%d: expert %d = %+v, alone %+v", n, i, g, want)
			}
		}
	}
}

// Property: every bank forecast lies within [min, max] of the observed
// series — all default experts are interpolating statistics.
func TestPropertyForecastWithinObservedRange(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		if n < 2 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		b, err := NewBank(nil)
		if err != nil {
			return false
		}
		min, max := math.Inf(1), math.Inf(-1)
		for i := 0; i < int(n); i++ {
			v := rng.Float64()*1000 - 500
			min = math.Min(min, v)
			max = math.Max(max, v)
			b.Update(v)
		}
		fc, err := b.Forecast()
		if err != nil {
			return false
		}
		const eps = 1e-9
		return fc.Value >= min-eps && fc.Value <= max+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the bank's chosen expert never has a worse mean squared error
// than any other scored expert.
func TestPropertyBankPicksMinimumError(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, err := NewBank(nil)
		if err != nil {
			return false
		}
		var vals []float64
		for i := 0; i < 100; i++ {
			vals = append(vals, 50+rng.NormFloat64()*10)
			b.Update(vals[i])
		}
		fc, err := b.Forecast()
		if err != nil {
			return false
		}
		for _, e := range DefaultForecasters() {
			if expertMSE(t, e.Name(), vals) < fc.MSE {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestBankFullWindowAllocs pins the forecasting path: with every window
// full, Update and Forecast allocate nothing.
func TestBankFullWindowAllocs(t *testing.T) {
	bank, err := NewBank(nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	step := func() {
		bank.Update(50 + rng.NormFloat64()*5)
		if _, err := bank.Forecast(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("Update+Forecast on full windows allocates %v objects/op, want 0", avg)
	}
}

// TestWindowedExpertsDropNonFinite pins that the windowed experts refuse
// NaN and ±Inf on their own, whoever feeds them.
func TestWindowedExpertsDropNonFinite(t *testing.T) {
	for _, f := range []Forecaster{newSlidingMean(3), newSlidingMedian(3), newTrimmedMean(3, 0.2)} {
		for _, v := range []float64{1, math.NaN(), 2, math.Inf(1), 3, math.Inf(-1)} {
			f.Update(v)
		}
		if v, ok := f.Predict(); !ok || v != 2 {
			t.Errorf("%s = %v, %v after {1, NaN, 2, +Inf, 3, -Inf}, want 2", f.Name(), v, ok)
		}
	}
}
