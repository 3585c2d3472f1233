package nws

import (
	"errors"
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/ring"
)

// Resource names of the two network sensors, matching NWS's own.
const (
	ResourceBandwidth = "bandwidth.tcp" // end-to-end TCP throughput, Mb/s
	ResourceLatency   = "latency.tcp"   // end-to-end round trip, milliseconds
)

// SeriesKey identifies one measured quantity. Target names the far
// endpoint of a network measurement; it is empty for a host-local one.
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

// seriesCapacity is how many measurements a Memory keeps per series.
const seriesCapacity = 512

// Memory is the nws_memory process: bounded storage for measurement
// series, plus a forecasting bank of DefaultForecasters per series that is
// updated as measurements arrive.
type Memory struct {
	series map[SeriesKey]*series
	// rev counts successful stores; the gridstate snapshot plane polls it
	// to detect that forecasts may have moved.
	rev uint64
}

// NewMemory creates a memory holding the latest 512 measurements of each
// series.
func NewMemory() *Memory {
	return &Memory{series: make(map[SeriesKey]*series)}
}

// ErrNonFinite is returned by Store for a NaN or infinite value. Nothing is
// recorded: a forecaster cannot use such a sample.
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
		bank, err := NewBank(nil)
		if err != nil {
			return err
		}
		s = &series{ms: ring.New[Measurement](seriesCapacity), bank: bank}
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

// unknownSeries is ErrUnknownSeries for one key. Its message is built only
// when read, so a miss that the caller discards — the information
// server's best-effort latency read — costs no formatting.
type unknownSeries struct{ key SeriesKey }

func (e *unknownSeries) Error() string { return ErrUnknownSeries.Error() + ": " + e.key.String() }

func (e *unknownSeries) Unwrap() error { return ErrUnknownSeries }

// History returns a copy of a series, oldest first.
func (m *Memory) History(key SeriesKey) ([]Measurement, error) {
	s, ok := m.series[key]
	if !ok {
		return nil, &unknownSeries{key}
	}
	return s.ms.Slice(), nil
}

// Latest returns the most recent measurement of a series.
func (m *Memory) Latest(key SeriesKey) (Measurement, error) {
	s, ok := m.series[key]
	if !ok || s.ms.Len() == 0 {
		return Measurement{}, &unknownSeries{key}
	}
	return *s.ms.At(s.ms.Len() - 1), nil
}

// Forecast returns the NWS forecast for a series.
func (m *Memory) Forecast(key SeriesKey) (Forecast, error) {
	s, ok := m.series[key]
	if !ok {
		return Forecast{}, &unknownSeries{key}
	}
	return s.bank.Forecast()
}
