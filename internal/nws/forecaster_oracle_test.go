package nws

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracleCases is how many seeded streams the differential sweep feeds.
// Tier-1 runs the default; CI runs ten times that under -race
// (-oracle.cases=10000). A test-binary flag, not a program knob.
var oracleCases = flag.Int("oracle.cases", 1000, "measurement streams the forecaster oracle sweep diffs")

// The reference: the windowed experts as they were — an append-and-reslice
// window, and a copy and a sort.Float64s on every Predict.

type refWindow struct {
	buf  []float64
	size int
}

func (w *refWindow) push(v float64) {
	w.buf = append(w.buf, v)
	if len(w.buf) > w.size {
		w.buf = w.buf[len(w.buf)-w.size:]
	}
}

type refSlidingMean struct{ refWindow }

func (f *refSlidingMean) Name() string     { return fmt.Sprintf("sw_mean(%d)", f.size) }
func (f *refSlidingMean) Update(v float64) { f.push(v) }
func (f *refSlidingMean) Predict() (float64, bool) {
	if len(f.buf) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, v := range f.buf {
		sum += v
	}
	return sum / float64(len(f.buf)), true
}

type refSlidingMedian struct{ refWindow }

func (f *refSlidingMedian) Name() string     { return fmt.Sprintf("sw_median(%d)", f.size) }
func (f *refSlidingMedian) Update(v float64) { f.push(v) }
func (f *refSlidingMedian) Predict() (float64, bool) {
	if len(f.buf) == 0 {
		return 0, false
	}
	s := append([]float64(nil), f.buf...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

type refTrimmedMean struct {
	refWindow
	trim float64
}

func (f *refTrimmedMean) Name() string     { return fmt.Sprintf("trim_mean(%d,%.2f)", f.size, f.trim) }
func (f *refTrimmedMean) Update(v float64) { f.push(v) }
func (f *refTrimmedMean) Predict() (float64, bool) {
	if len(f.buf) == 0 {
		return 0, false
	}
	s := append([]float64(nil), f.buf...)
	sort.Float64s(s)
	drop := int(float64(len(s)) * f.trim)
	s = s[drop : len(s)-drop]
	if len(s) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s)), true
}

// refForecasters is DefaultForecasters with the windowed experts swapped
// for their references, in the same order under the same names.
func refForecasters() []Forecaster {
	fs := []Forecaster{&lastValue{}, &runningMean{}}
	for _, k := range []int{5, 11, 21, 51} {
		fs = append(fs, &refSlidingMean{refWindow{size: k}})
	}
	for _, k := range []int{5, 11, 21, 51} {
		fs = append(fs, &refSlidingMedian{refWindow{size: k}})
	}
	for _, k := range []int{11, 31} {
		fs = append(fs, &refTrimmedMean{refWindow{size: k}, 0.2})
	}
	for _, g := range []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9} {
		fs = append(fs, newEWMA(g))
	}
	return fs
}

// streamKinds names the generators, one per seed in rotation.
var streamKinds = []string{
	"gaussian", "constant", "up", "down", "duplicates", "magnitudes", "signed zeros", "with non-finite",
}

// oracleStream returns one seeded measurement stream. Lengths straddle
// every window size the default bank uses. zeros reports a stream mixing
// -0 and +0, whose relative order the reference sort leaves unspecified.
func oracleStream(seed int64) (kind string, vals []float64, zeros bool) {
	rng := rand.New(rand.NewSource(seed))
	kind = streamKinds[seed%int64(len(streamKinds))]
	edges := []int{5, 11, 21, 31, 51}
	n := edges[rng.Intn(len(edges))] + rng.Intn(3) - 1 // one short of, exactly, one past a window
	if rng.Intn(3) == 0 {
		n += 51 + rng.Intn(100) // and well past every window, so each one wraps
	}
	vals = make([]float64, n)
	level := rng.NormFloat64() * 100
	for i := range vals {
		switch kind {
		case "gaussian":
			vals[i] = 50 + rng.NormFloat64()*5
		case "constant":
			vals[i] = level
		case "up":
			level += rng.Float64()
			vals[i] = level
		case "down":
			level -= rng.Float64()
			vals[i] = level
		case "duplicates":
			vals[i] = float64(rng.Intn(4))
		case "magnitudes":
			vals[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(601)-300))
		case "signed zeros":
			vals[i] = []float64{math.Copysign(0, -1), 0, 0, 1, -1}[rng.Intn(5)]
		case "with non-finite":
			vals[i] = rng.NormFloat64()
			if rng.Intn(8) == 0 {
				vals[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			}
		}
	}
	return kind, vals, kind == "signed zeros"
}

// same compares two floats by bits, or by == on a signed-zero stream.
func same(a, b float64, zeros bool) bool {
	if zeros {
		return a == b
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// diffStream feeds one stream to the production bank and the reference
// bank and returns the first disagreement: any expert's Predict, or any
// field of Forecast, after any Update.
func diffStream(seed int64) error {
	kind, vals, zeros := oracleStream(seed)
	experts, refs := DefaultForecasters(), refForecasters()
	bank, err := NewBank(experts)
	if err != nil {
		return err
	}
	ref, err := NewBank(refs)
	if err != nil {
		return err
	}
	where := func(i int) string {
		return fmt.Sprintf("seed %d (%s), after value %d of %d", seed, kind, i+1, len(vals))
	}
	for i, v := range vals {
		bank.Update(v)
		ref.Update(v)
		for k := range experts {
			if experts[k].Name() != refs[k].Name() {
				return fmt.Errorf("expert %d is %q, reference %q", k, experts[k].Name(), refs[k].Name())
			}
			got, gotOK := experts[k].Predict()
			want, wantOK := refs[k].Predict()
			if gotOK != wantOK || !same(got, want, zeros) {
				return fmt.Errorf("%s: %s predicts %v (%v), reference %v (%v)", where(i), experts[k].Name(), got, gotOK, want, wantOK)
			}
		}
		got, gotErr := bank.Forecast()
		want, wantErr := ref.Forecast()
		if gotErr != wantErr || got.Expert != want.Expert || got.N != want.N ||
			!same(got.Value, want.Value, zeros) || !same(got.MSE, want.MSE, zeros) {
			return fmt.Errorf("%s: forecast %+v (%v), reference %+v (%v)", where(i), got, gotErr, want, wantErr)
		}
	}
	return nil
}

// TestForecasterOracle diffs the order-maintaining windows against the
// copy-and-sort experts they replaced over seeded streams: every expert's
// Predict and the bank's whole Forecast, bit for bit, after every Update.
func TestForecasterOracle(t *testing.T) {
	for seed := int64(1); seed <= int64(*oracleCases); seed++ {
		if err := diffStream(seed); err != nil {
			t.Fatal(err)
		}
	}
}
