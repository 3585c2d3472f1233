// Package nws reimplements the Network Weather Service (§2.2 of the paper):
// a distributed monitoring system producing short-term performance
// forecasts from historical measurements. It provides the two NWS
// processes replica selection reads through — nws_memory (measurement
// storage) and nws_sensor (periodic measurement) — plus the NWS
// forecasting engine: a bank of simple predictors raced against each
// other, where the predictor with the lowest mean squared error wins the
// right to make the next forecast (Wolski's "mixture of experts").
package nws

import (
	"errors"
	"fmt"
	"math"

	"github.com/hpclab/datagrid/internal/ring"
)

// Forecaster is one predictive model in the bank. Update feeds it a new
// measurement; Predict returns its estimate of the next value.
type Forecaster interface {
	// Name identifies the model, e.g. "sw_median(21)".
	Name() string
	// Update incorporates the latest measurement.
	Update(v float64)
	// Predict returns the model's next-value estimate. ok is false until
	// the model has enough history.
	Predict() (value float64, ok bool)
}

// lastValue predicts the most recent measurement.
type lastValue struct {
	v   float64
	has bool
}

func (f *lastValue) Name() string { return "last" }
func (f *lastValue) Update(v float64) {
	f.v, f.has = v, true
}
func (f *lastValue) Predict() (float64, bool) { return f.v, f.has }

// runningMean predicts the mean of the whole history.
type runningMean struct {
	sum float64
	n   int
}

func (f *runningMean) Name() string { return "run_mean" }
func (f *runningMean) Update(v float64) {
	f.sum += v
	f.n++
}
func (f *runningMean) Predict() (float64, bool) {
	if f.n == 0 {
		return 0, false
	}
	return f.sum / float64(f.n), true
}

// finite reports whether v is a usable measurement. NaN and ±Inf are
// refused everywhere a value enters a history: they would poison every
// sum they touch and have no place in an ordering.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// slidingWindow is shared storage for the windowed models: the last k
// finite values in arrival order.
type slidingWindow struct {
	ring.Buffer[float64]
	name string
}

func newSlidingWindow(k int, name string) slidingWindow {
	return slidingWindow{ring.New[float64](k), name}
}

func (w *slidingWindow) Name() string { return w.name }

// slidingMean predicts the mean of the last k measurements.
type slidingMean struct{ slidingWindow }

func newSlidingMean(k int) *slidingMean {
	return &slidingMean{newSlidingWindow(k, fmt.Sprintf("sw_mean(%d)", k))}
}

func (f *slidingMean) Update(v float64) {
	if finite(v) {
		f.Push(v)
	}
}

// Predict sums oldest to newest: a running sum would be cheaper and
// would round differently.
func (f *slidingMean) Predict() (float64, bool) {
	if f.Len() == 0 {
		return 0, false
	}
	older, newer := f.Segments()
	sum := 0.0
	for _, v := range older {
		sum += v
	}
	for _, v := range newer {
		sum += v
	}
	return sum / float64(f.Len()), true
}

// sortedWindow is a slidingWindow that also keeps its values in ascending
// order, so order statistics cost a read instead of a copy and a sort.
// Every push moves at most the elements between the evicted value's place
// and the new one's.
type sortedWindow struct {
	slidingWindow
	sorted []float64
}

// lowerBound returns the first index of s holding a value >= v. Windows
// hold at most 51 values, and on noisy measurements a linear scan's one
// predictable branch beats a binary search's coin tosses
// (BenchmarkForecasterBank, alternating runs: 768–822 against 901–1065
// ns/op).
func lowerBound(s []float64, v float64) int {
	for i, x := range s {
		if x >= v {
			return i
		}
	}
	return len(s)
}

// Update drops non-finite values itself, whoever the caller is: a NaN
// compares false with everything and would break the order for good.
func (w *sortedWindow) Update(v float64) {
	if !finite(v) {
		return
	}
	old, evicted := w.Push(v)
	if !evicted {
		// Still filling: grow by a +Inf cell and evict that.
		old = math.Inf(1)
		w.sorted = append(w.sorted, old)
	}
	s := w.sorted
	i, j := lowerBound(s, old), lowerBound(s, v) // the hole, and where v belongs
	if j > i {
		j--
		copy(s[i:j], s[i+1:j+1])
	} else {
		copy(s[j+1:i+1], s[j:i])
	}
	s[j] = v
}

// slidingMedian predicts the median of the last k measurements.
type slidingMedian struct{ sortedWindow }

func newSlidingMedian(k int) *slidingMedian {
	return &slidingMedian{sortedWindow{slidingWindow: newSlidingWindow(k, fmt.Sprintf("sw_median(%d)", k))}}
}

func (f *slidingMedian) Predict() (float64, bool) {
	s := f.sorted
	n := len(s)
	if n == 0 {
		return 0, false
	}
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

// trimmedMean predicts the mean of the last k measurements after dropping
// the top and bottom trim fraction.
type trimmedMean struct {
	sortedWindow
	trim float64
}

func newTrimmedMean(k int, trim float64) *trimmedMean {
	return &trimmedMean{sortedWindow{slidingWindow: newSlidingWindow(k, fmt.Sprintf("trim_mean(%d,%.2f)", k, trim))}, trim}
}

func (f *trimmedMean) Predict() (float64, bool) {
	s := f.sorted
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

// ewma predicts an exponentially weighted moving average with gain g.
type ewma struct {
	g    float64
	v    float64
	has  bool
	name string
}

func newEWMA(g float64) *ewma { return &ewma{g: g, name: fmt.Sprintf("ewma(%.2f)", g)} }

func (f *ewma) Name() string { return f.name }
func (f *ewma) Update(v float64) {
	if !f.has {
		f.v, f.has = v, true
		return
	}
	f.v = f.g*v + (1-f.g)*f.v
}
func (f *ewma) Predict() (float64, bool) { return f.v, f.has }

// DefaultForecasters returns the standard NWS-style expert bank.
func DefaultForecasters() []Forecaster {
	fs := []Forecaster{
		&lastValue{},
		&runningMean{},
	}
	for _, k := range []int{5, 11, 21, 51} {
		fs = append(fs, newSlidingMean(k))
	}
	for _, k := range []int{5, 11, 21, 51} {
		fs = append(fs, newSlidingMedian(k))
	}
	for _, k := range []int{11, 31} {
		fs = append(fs, newTrimmedMean(k, 0.2))
	}
	for _, g := range []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9} {
		fs = append(fs, newEWMA(g))
	}
	return fs
}

// Forecast is the bank's output.
type Forecast struct {
	// Value is the winning expert's prediction (lowest cumulative MSE).
	Value float64
	// Expert names the winning model.
	Expert string
	// MSE is the winner's mean squared error so far, a measure of how
	// trustworthy the forecast is.
	MSE float64
	// N is the number of measurements the bank has seen.
	N int
}

// Bank races a set of forecasters: every new measurement first scores each
// expert's standing prediction against reality, then updates the experts.
type Bank struct {
	experts []Forecaster
	sqErr   []float64
	scored  []int
	n       int
}

// NewBank builds a bank from the given experts; nil means
// DefaultForecasters.
func NewBank(experts []Forecaster) (*Bank, error) {
	if experts == nil {
		experts = DefaultForecasters()
	}
	if len(experts) == 0 {
		return nil, errors.New("nws: bank needs at least one forecaster")
	}
	seen := map[string]bool{}
	for _, e := range experts {
		if e == nil {
			return nil, errors.New("nws: nil forecaster")
		}
		if seen[e.Name()] {
			return nil, fmt.Errorf("nws: duplicate forecaster %q", e.Name())
		}
		seen[e.Name()] = true
	}
	return &Bank{
		experts: experts,
		sqErr:   make([]float64, len(experts)),
		scored:  make([]int, len(experts)),
	}, nil
}

// Update scores every expert against the observed value v, then feeds v to
// all experts.
func (b *Bank) Update(v float64) {
	if !finite(v) {
		return // refuse to poison the history
	}
	for i, e := range b.experts {
		if p, ok := e.Predict(); ok {
			d := p - v
			b.sqErr[i] += d * d
			b.scored[i]++
		}
	}
	for _, e := range b.experts {
		e.Update(v)
	}
	b.n++
}

// ErrNoForecast is returned before the bank has any usable prediction.
var ErrNoForecast = errors.New("nws: no forecast available yet")

// Forecast returns the current winning prediction.
func (b *Bank) Forecast() (Forecast, error) {
	best := -1
	for i, e := range b.experts {
		if _, ok := e.Predict(); !ok {
			continue
		}
		if best == -1 || b.meanErr(i) < b.meanErr(best) {
			best = i
		}
	}
	if best == -1 {
		return Forecast{}, ErrNoForecast
	}
	v, _ := b.experts[best].Predict()
	return Forecast{Value: v, Expert: b.experts[best].Name(), MSE: b.meanErr(best), N: b.n}, nil
}

// ExpertScore is one expert's standing in a bank: the mean squared error
// of the Scored predictions it made before seeing each value.
type ExpertScore struct {
	Name   string
	MSE    float64 // +Inf while Scored is 0
	Scored int
}

// Experts returns every expert's score, in the bank's order.
func (b *Bank) Experts() []ExpertScore {
	out := make([]ExpertScore, len(b.experts))
	for i, e := range b.experts {
		out[i] = ExpertScore{Name: e.Name(), MSE: b.meanErr(i), Scored: b.scored[i]}
	}
	return out
}

// meanErr returns an expert's mean squared error, normalized by how many
// times it was scored so late-starting windowed models compete fairly.
func (b *Bank) meanErr(i int) float64 {
	if b.scored[i] == 0 {
		return math.Inf(1)
	}
	return b.sqErr[i] / float64(b.scored[i])
}
