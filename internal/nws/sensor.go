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

// BandwidthSensorConfig tunes an end-to-end TCP bandwidth sensor.
type BandwidthSensorConfig struct {
	// Period between probes.
	Period time.Duration
	// ProbeBytes is the probe transfer size; NWS defaults to 64 KiB–1 MiB.
	// Default 512 KiB.
	ProbeBytes int64
	// WindowBytes is the probe's TCP window; default netsim's 64 KiB.
	WindowBytes int
}

// probeTimeoutPeriods is how many periods a probe may stay in flight
// before it is abandoned (a stalled path). While a probe is in flight,
// new probes are skipped.
const probeTimeoutPeriods = 3

func (c *BandwidthSensorConfig) fillDefaults() error {
	if c.Period <= 0 {
		return fmt.Errorf("nws: sensor period must be positive, got %v", c.Period)
	}
	if c.ProbeBytes == 0 {
		c.ProbeBytes = 512 * 1024
	}
	if c.ProbeBytes < 0 || c.WindowBytes < 0 {
		return errors.New("nws: negative bandwidth sensor option")
	}
	return nil
}

// NewBandwidthSensor creates the NWS end-to-end TCP bandwidth sensor: every
// period it pushes a real probe flow through the simulated network from src
// to dst and records the achieved throughput in Mb/s. Probes share the
// network with grid transfers, so — exactly as with real NWS — measurements
// are noisy and reflect current conditions. A new probe is skipped while
// the previous one is still in flight.
func NewBandwidthSensor(engine *simulation.Engine, mem *Memory, net *netsim.Network, src, dst string, cfg BandwidthSensorConfig) (*Sensor, error) {
	if engine == nil || mem == nil || net == nil {
		return nil, errors.New("nws: bandwidth sensor needs engine, memory and network")
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if _, err := net.Route(src, dst); err != nil {
		return nil, err
	}
	key := SeriesKey{Resource: ResourceBandwidth, Source: src, Target: dst}
	s := &Sensor{name: "bw." + src + "->" + dst}
	var probe *netsim.Flow
	var probeStart time.Duration
	tk, err := engine.NewTicker(cfg.Period, true, func(now time.Duration) {
		if probe != nil {
			// A slow probe (long path) is simply left to finish; one that
			// outlives the timeout means the path is stalled (congested
			// or down). Abandon it, as real NWS sensors time their probes
			// out, and record nothing: the series goes stale, which
			// consumers can detect.
			if now-probeStart > probeTimeoutPeriods*cfg.Period {
				_ = net.CancelFlow(probe)
				probe = nil
			}
			return
		}
		probeStart = now
		f, err := net.StartFlow(src, dst, cfg.ProbeBytes, netsim.FlowOptions{WindowBytes: cfg.WindowBytes}, func(f *netsim.Flow) {
			probe = nil
			d := f.Duration().Seconds()
			if d <= 0 {
				return
			}
			mbpsv := float64(cfg.ProbeBytes) * 8 / d / 1e6
			_ = mem.Store(key, Measurement{At: f.Finished(), Value: mbpsv})
		})
		if err == nil {
			probe = f
		}
	})
	if err != nil {
		return nil, err
	}
	s.ticker = tk
	return s, nil
}

// NewLatencySensor creates a sensor recording the path round-trip time in
// milliseconds with a small multiplicative jitter (queueing noise a real
// ping would see).
func NewLatencySensor(engine *simulation.Engine, mem *Memory, net *netsim.Network, src, dst string, period time.Duration, seed int64) (*Sensor, error) {
	if engine == nil || mem == nil || net == nil {
		return nil, errors.New("nws: latency sensor needs engine, memory and network")
	}
	if _, err := net.Route(src, dst); err != nil {
		return nil, err
	}
	key := SeriesKey{Resource: ResourceLatency, Source: src, Target: dst}
	rng := rand.New(rand.NewSource(seed))
	s := &Sensor{name: "lat." + src + "->" + dst}
	tk, err := engine.NewTicker(period, true, func(now time.Duration) {
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
