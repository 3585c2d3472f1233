package nws

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/hpclab/datagrid/internal/ring"
)

// Standard resource names, matching the measurements NWS ships sensors for.
const (
	ResourceBandwidth = "bandwidth.tcp" // end-to-end TCP throughput, Mb/s
	ResourceLatency   = "latency.tcp"   // end-to-end round trip, milliseconds
	ResourceCPU       = "availableCPU"  // fraction of CPU available, 0..1
	ResourceMemory    = "freeMemory"    // available memory, MB
	ResourceIO        = "availableIO"   // fraction of disk bandwidth available, 0..1
)

// SeriesKey identifies one measured quantity. Target is empty for
// host-local resources (CPU, memory) and names the far endpoint for
// network resources.
type SeriesKey struct {
	Resource string
	Source   string
	Target   string
}

func (k SeriesKey) String() string {
	if k.Target == "" {
		return fmt.Sprintf("%s@%s", k.Resource, k.Source)
	}
	return fmt.Sprintf("%s:%s->%s", k.Resource, k.Source, k.Target)
}

func (k SeriesKey) validate() error {
	if k.Resource == "" {
		return errors.New("nws: empty resource in series key")
	}
	if k.Source == "" {
		return errors.New("nws: empty source in series key")
	}
	return nil
}

// Measurement is one timestamped sample.
type Measurement struct {
	At    time.Duration
	Value float64
}

type series struct {
	ms   ring.Buffer[Measurement]
	bank *Bank
}

// Memory is the nws_memory process: bounded persistent storage for
// measurement series, plus a forecasting bank per series that is updated
// as measurements arrive.
type Memory struct {
	capacity   int
	series     map[SeriesKey]*series
	newExperts func() []Forecaster
	// rev counts successful stores; the gridstate snapshot plane polls it
	// to detect that forecasts may have moved.
	rev uint64
}

// NewMemory creates a memory holding at most capacity measurements per
// series (<= 0 selects the NWS-ish default of 512). experts, if non-nil,
// constructs the forecaster bank used for each new series.
func NewMemory(capacity int, experts func() []Forecaster) *Memory {
	if capacity <= 0 {
		capacity = 512
	}
	return &Memory{capacity: capacity, series: make(map[SeriesKey]*series), newExperts: experts}
}

// ErrNonFinite is returned by Store for a NaN or infinite value. Nothing is
// recorded: a forecaster cannot use such a sample and a journal cannot
// encode it.
var ErrNonFinite = errors.New("nws: non-finite measurement")

// Store appends a measurement to the series identified by key.
func (m *Memory) Store(key SeriesKey, meas Measurement) error {
	if err := key.validate(); err != nil {
		return err
	}
	if !finite(meas.Value) {
		return fmt.Errorf("%w: %v for %s", ErrNonFinite, meas.Value, key)
	}
	s, ok := m.series[key]
	if !ok {
		var experts []Forecaster
		if m.newExperts != nil {
			experts = m.newExperts()
		}
		bank, err := NewBank(experts)
		if err != nil {
			return err
		}
		s = &series{ms: ring.New[Measurement](m.capacity), bank: bank}
		m.series[key] = s
	}
	s.ms.Push(meas)
	s.bank.Update(meas.Value)
	m.rev++
	return nil
}

// Revision increases with every stored measurement. It lets snapshot
// consumers (gridstate.Publisher) detect new data without scanning
// series.
func (m *Memory) Revision() uint64 { return m.rev }

// ErrUnknownSeries is returned for series with no measurements.
var ErrUnknownSeries = errors.New("nws: unknown series")

// History returns a copy of a series, oldest first.
func (m *Memory) History(key SeriesKey) ([]Measurement, error) {
	s, ok := m.series[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSeries, key)
	}
	return s.ms.Slice(), nil
}

// Latest returns the most recent measurement of a series.
func (m *Memory) Latest(key SeriesKey) (Measurement, error) {
	s, ok := m.series[key]
	if !ok || s.ms.Len() == 0 {
		return Measurement{}, fmt.Errorf("%w: %s", ErrUnknownSeries, key)
	}
	return *s.ms.At(s.ms.Len() - 1), nil
}

// Forecast returns the NWS forecast for a series.
func (m *Memory) Forecast(key SeriesKey) (Forecast, error) {
	s, ok := m.series[key]
	if !ok {
		return Forecast{}, fmt.Errorf("%w: %s", ErrUnknownSeries, key)
	}
	return s.bank.Forecast()
}

// Keys lists all stored series, sorted by their string form.
func (m *Memory) Keys() []SeriesKey {
	out := make([]SeriesKey, 0, len(m.series))
	for k := range m.series {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Len returns the number of measurements held for key (0 if unknown).
func (m *Memory) Len(key SeriesKey) int {
	s, ok := m.series[key]
	if !ok {
		return 0
	}
	return s.ms.Len()
}
