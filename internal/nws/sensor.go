package nws

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/simulation"
)

// Sensor is the nws_sensor process: it periodically takes one measurement
// and stores it in a Memory.
type Sensor struct {
	name   string
	ticker *simulation.Ticker
}

// Name returns the sensor's name, e.g. "bw.hit0->alpha1".
func (s *Sensor) Name() string { return s.name }

// SetPaused suspends (or resumes) measurements without killing the
// sensor: the fault plane uses this to model an nws_sensor process that
// has crashed, so its series goes stale until the process "restarts".
func (s *Sensor) SetPaused(paused bool) { s.ticker.SetPaused(paused) }

// ProbePeriod is the interval between a sensor's measurements.
const ProbePeriod = 10 * time.Second

// BandwidthSensorConfig tunes an end-to-end TCP bandwidth sensor.
type BandwidthSensorConfig struct {
	// ProbeBytes is the probe transfer size; it must be positive.
	ProbeBytes int64
	// WindowBytes is the probe's TCP window; default netsim's 64 KiB.
	WindowBytes int
}

// probeTimeoutPeriods is how many ProbePeriods a probe may stay in flight
// before it is abandoned (a stalled path). While a probe is in flight,
// new probes are skipped.
const probeTimeoutPeriods = 3

func (c BandwidthSensorConfig) validate() error {
	if c.ProbeBytes <= 0 || c.WindowBytes < 0 {
		return fmt.Errorf("nws: probe of %d bytes with a %d-byte window", c.ProbeBytes, c.WindowBytes)
	}
	return nil
}

// NewBandwidthSensor creates the NWS end-to-end TCP bandwidth sensor: every
// ProbePeriod, the first at once, it pushes a real probe flow through the
// simulated network from src to dst and records the achieved throughput in
// Mb/s. Probes share the network with grid transfers, so — exactly as with
// real NWS — measurements are noisy and reflect current conditions. A new
// probe is skipped while the previous one is still in flight.
func NewBandwidthSensor(engine *simulation.Engine, mem *Memory, net *netsim.Network, src, dst string, cfg BandwidthSensorConfig) (*Sensor, error) {
	if engine == nil || mem == nil || net == nil {
		return nil, errors.New("nws: bandwidth sensor needs engine, memory and network")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if _, err := net.Route(src, dst); err != nil {
		return nil, err
	}
	key := SeriesKey{Resource: ResourceBandwidth, Source: src, Target: dst}
	p := &bandwidthProbe{mem: mem, key: key, bytes: cfg.ProbeBytes}
	s := &Sensor{name: "bw." + src + "->" + dst}
	tk, err := engine.NewTicker(ProbePeriod, func(now time.Duration) {
		if p.flow != nil {
			// A slow probe (long path) is simply left to finish; one that
			// outlives the timeout means the path is stalled (congested
			// or down). Abandon it, as real NWS sensors time their probes
			// out, and record nothing: the series goes stale, which
			// consumers can detect.
			if now-p.start > probeTimeoutPeriods*ProbePeriod {
				_ = net.CancelFlow(p.flow)
				p.flow = nil
			}
			return
		}
		p.start = now
		f, err := net.StartFlow(src, dst, cfg.ProbeBytes, netsim.FlowOptions{WindowBytes: cfg.WindowBytes}, p)
		if err == nil {
			p.flow = f
		}
	})
	if err != nil {
		return nil, err
	}
	s.ticker = tk
	return s, nil
}

// bandwidthProbe is a bandwidth sensor's probe state: the flow in flight,
// if any, and when it started. It receives its probes' ends, so a probe
// costs its Flow and nothing else.
type bandwidthProbe struct {
	mem   *Memory
	key   SeriesKey
	bytes int64
	flow  *netsim.Flow
	start time.Duration
}

// FlowEnded records a finished probe's throughput in Mb/s.
func (p *bandwidthProbe) FlowEnded(f *netsim.Flow) {
	p.flow = nil
	d := f.Duration().Seconds()
	if d <= 0 {
		return
	}
	mbpsv := float64(p.bytes) * 8 / d / 1e6
	_ = p.mem.Store(p.key, Measurement{At: f.Finished(), Value: mbpsv})
}

// NewLatencySensor creates a sensor recording the path round-trip time in
// milliseconds every ProbePeriod, the first at once, with a small
// multiplicative jitter (queueing noise a real ping would see).
func NewLatencySensor(engine *simulation.Engine, mem *Memory, net *netsim.Network, src, dst string, seed int64) (*Sensor, error) {
	if engine == nil || mem == nil || net == nil {
		return nil, errors.New("nws: latency sensor needs engine, memory and network")
	}
	if _, err := net.Route(src, dst); err != nil {
		return nil, err
	}
	key := SeriesKey{Resource: ResourceLatency, Source: src, Target: dst}
	rng := rand.New(rand.NewSource(seed))
	s := &Sensor{name: "lat." + src + "->" + dst}
	tk, err := engine.NewTicker(ProbePeriod, func(now time.Duration) {
		// Pings see queueing delay on loaded links, not just propagation.
		rtt, err := net.PathRTTLoaded(src, dst)
		if err != nil {
			return
		}
		ms := rtt.Seconds() * 1e3 * (1 + rng.Float64()*0.1)
		_ = mem.Store(key, Measurement{At: now, Value: ms})
	})
	if err != nil {
		return nil, err
	}
	s.ticker = tk
	return s, nil
}
