package nws

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/simulation"
)

func TestSeriesKeyString(t *testing.T) {
	k := SeriesKey{Resource: "load", Source: "alpha1"}
	if k.String() != "load@alpha1" {
		t.Fatalf("key = %q", k.String())
	}
	k2 := SeriesKey{Resource: ResourceBandwidth, Source: "a", Target: "b"}
	if k2.String() != "bandwidth.tcp:a->b" {
		t.Fatalf("key = %q", k2.String())
	}
}

func TestMemoryStoreAndQuery(t *testing.T) {
	m := NewMemory()
	k := SeriesKey{Resource: ResourceLatency, Source: "h1", Target: "h2"}
	for i := 0; i < 5; i++ {
		if err := m.Store(k, Measurement{At: time.Duration(i) * time.Second, Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := m.History(k)
	if err != nil || len(hist) != 5 {
		t.Fatalf("history = %v, %v", hist, err)
	}
	last, err := m.Latest(k)
	if err != nil || last.Value != 4 {
		t.Fatalf("latest = %v, %v", last, err)
	}
	fc, err := m.Forecast(k)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Value < 0 || fc.Value > 4 {
		t.Fatalf("forecast %v outside range", fc.Value)
	}
}

// TestMemoryUnknownSeries: a miss names the key, unwraps to
// ErrUnknownSeries, and costs at most one allocation — its message is
// only formatted when read.
func TestMemoryUnknownSeries(t *testing.T) {
	m := NewMemory()
	k := SeriesKey{Resource: ResourceLatency, Source: "hit0", Target: "alpha1"}
	const want = "nws: unknown series: latency.tcp:hit0->alpha1"
	misses := map[string]func() error{
		"History":  func() error { _, err := m.History(k); return err },
		"Latest":   func() error { _, err := m.Latest(k); return err },
		"Forecast": func() error { _, err := m.Forecast(k); return err },
	}
	for name, miss := range misses {
		if err := miss(); !errors.Is(err, ErrUnknownSeries) || err.Error() != want {
			t.Fatalf("%s err = %v, want %q wrapping ErrUnknownSeries", name, err, want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = miss() }); n > 1 {
			t.Fatalf("%s miss allocates %v times, want <= 1", name, n)
		}
	}
	if _, err := m.Latest(SeriesKey{Resource: "x", Source: "y"}); err.Error() != "nws: unknown series: x@y" {
		t.Fatalf("host-local miss err = %v", err)
	}
}

func TestMemoryBoundedCapacity(t *testing.T) {
	m := NewMemory()
	k := SeriesKey{Resource: "r", Source: "s"}
	for i := 0; i < seriesCapacity+10; i++ {
		if err := m.Store(k, Measurement{Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	hist, _ := m.History(k)
	if len(hist) != seriesCapacity || hist[0].Value != 10 {
		t.Fatalf("bounded history: %d records, oldest %v", len(hist), hist[0])
	}
}

func TestMemoryKeyValidation(t *testing.T) {
	m := NewMemory()
	if err := m.Store(SeriesKey{Source: "s"}, Measurement{}); err == nil {
		t.Fatal("empty resource should be rejected")
	}
	if err := m.Store(SeriesKey{Resource: "r"}, Measurement{}); err == nil {
		t.Fatal("empty source should be rejected")
	}
}

// deployment builds engine + 2-node network + memory.
func deployment(t *testing.T) (*simulation.Engine, *netsim.Network, *Memory) {
	t.Helper()
	eng := simulation.NewEngine()
	net := netsim.New(eng)
	for _, n := range []string{"a", "b"} {
		if err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.AddLink("a", "b", netsim.LinkConfig{CapacityBps: 100e6, Delay: 5 * time.Millisecond, LossRate: 0.001}); err != nil {
		t.Fatal(err)
	}
	return eng, net, NewMemory()
}

// A sensor probes every 10 s, the first probe at once: the probes
// started at 0..50 s have all landed by 60 s.
func TestBandwidthSensorProbes(t *testing.T) {
	if ProbePeriod != 10*time.Second {
		t.Fatalf("ProbePeriod = %v, want 10s", ProbePeriod)
	}
	eng, net, mem := deployment(t)
	if _, err := NewBandwidthSensor(eng, mem, net, "a", "b", BandwidthSensorConfig{ProbeBytes: 512 << 10}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	key := SeriesKey{Resource: ResourceBandwidth, Source: "a", Target: "b"}
	if hist, _ := mem.History(key); len(hist) != 6 {
		t.Fatalf("bandwidth samples = %d, want 6", len(hist))
	}
	last, err := mem.Latest(key)
	if err != nil {
		t.Fatal(err)
	}
	// A 512 KiB probe with a 64 KiB window on a 10 ms RTT path cannot
	// exceed window/RTT = 52 Mb/s nor the 100 Mb/s line rate, and should
	// achieve at least a few Mb/s.
	if last.Value <= 1 || last.Value > 100 {
		t.Fatalf("probe measured %v Mb/s", last.Value)
	}
	fc, err := mem.Forecast(key)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Value <= 0 {
		t.Fatalf("bandwidth forecast = %+v", fc)
	}
}

func TestBandwidthSensorMeasuresContention(t *testing.T) {
	eng, net, mem := deployment(t)
	if _, err := NewBandwidthSensor(eng, mem, net, "a", "b", BandwidthSensorConfig{ProbeBytes: 512 << 10, WindowBytes: 1 << 22}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	key := SeriesKey{Resource: ResourceBandwidth, Source: "a", Target: "b"}
	quiet, err := mem.Latest(key)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the link with several long competing transfers so the
	// probe's fair share drops below even its Mathis loss cap.
	for i := 0; i < 8; i++ {
		if _, err := net.StartFlow("a", "b", 1<<32, netsim.FlowOptions{WindowBytes: 1 << 30}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	busy, err := mem.Latest(key)
	if err != nil {
		t.Fatal(err)
	}
	if busy.Value >= quiet.Value {
		t.Fatalf("probe under contention (%v) should be slower than quiet (%v)", busy.Value, quiet.Value)
	}
}

func TestBandwidthSensorValidation(t *testing.T) {
	eng, net, mem := deployment(t)
	if _, err := NewBandwidthSensor(eng, mem, net, "a", "ghost", BandwidthSensorConfig{ProbeBytes: 1}); err == nil {
		t.Fatal("unroutable pair should be rejected")
	}
	for _, cfg := range []BandwidthSensorConfig{{}, {ProbeBytes: -1}, {ProbeBytes: 1, WindowBytes: -1}} {
		if _, err := NewBandwidthSensor(eng, mem, net, "a", "b", cfg); err == nil {
			t.Fatalf("%+v should be rejected", cfg)
		}
	}
	if _, err := NewBandwidthSensor(eng, mem, nil, "a", "b", BandwidthSensorConfig{ProbeBytes: 1}); err == nil {
		t.Fatal("nil network should be rejected")
	}
}

func TestLatencySensor(t *testing.T) {
	eng, net, mem := deployment(t)
	s, err := NewLatencySensor(eng, mem, net, "a", "b", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(10 * ProbePeriod); err != nil {
		t.Fatal(err)
	}
	key := SeriesKey{Resource: ResourceLatency, Source: "a", Target: "b"}
	hist, err := mem.History(key)
	if err != nil || len(hist) != 11 {
		t.Fatalf("latency history = %d, %v", len(hist), err)
	}
	for _, m := range hist {
		// RTT is 10 ms; jitter adds up to 10%.
		if m.Value < 10 || m.Value > 11 {
			t.Fatalf("latency sample %v ms out of expected [10, 11]", m.Value)
		}
	}
	if s.Name() != "lat.a->b" {
		t.Fatalf("sensor name = %q", s.Name())
	}
	s.SetPaused(true)
	if err := eng.RunUntil(20 * ProbePeriod); err != nil {
		t.Fatal(err)
	}
	if hist, _ := mem.History(key); len(hist) != 11 {
		t.Fatal("sensor kept sampling while paused")
	}
}

func TestLatencySensorValidation(t *testing.T) {
	eng, net, mem := deployment(t)
	if _, err := NewLatencySensor(eng, mem, net, "a", "nope", 1); err == nil {
		t.Fatal("unroutable pair should be rejected")
	}
	if _, err := NewLatencySensor(nil, mem, net, "a", "b", 1); err == nil {
		t.Fatal("nil engine should be rejected")
	}
}

// TestMemoryRejectsNonFinite pins that a NaN or infinite measurement is
// refused before anything moves: history, latest value, revision and the
// bank all stay where they were.
func TestMemoryRejectsNonFinite(t *testing.T) {
	mem := NewMemory()
	key := SeriesKey{Resource: ResourceLatency, Source: "a", Target: "b"}
	if err := mem.Store(key, Measurement{At: time.Second, Value: 0.5}); err != nil {
		t.Fatal(err)
	}
	rev := mem.Revision()
	before, _ := mem.Forecast(key)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := mem.Store(key, Measurement{At: 2 * time.Second, Value: v}); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("Store(%v) = %v, want ErrNonFinite", v, err)
		}
	}
	// A first sample that is refused must not leave an empty series behind.
	fresh := SeriesKey{Resource: ResourceLatency, Source: "b", Target: "a"}
	if err := mem.Store(fresh, Measurement{Value: math.NaN()}); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("Store(NaN) on a new key = %v, want ErrNonFinite", err)
	}
	if _, err := mem.History(fresh); !errors.Is(err, ErrUnknownSeries) {
		t.Fatalf("refused first sample created a series: History = %v", err)
	}
	if hist, _ := mem.History(key); len(hist) != 1 || mem.Revision() != rev {
		t.Fatalf("%d records, Revision %d -> %d after refused stores", len(hist), rev, mem.Revision())
	}
	if last, err := mem.Latest(key); err != nil || last.Value != 0.5 {
		t.Fatalf("Latest = %v, %v", last, err)
	}
	if after, _ := mem.Forecast(key); after != before {
		t.Fatalf("forecast moved: %+v -> %+v", before, after)
	}

}

// TestMemoryStoreAtCapacityAllocs pins the steady-state store: a series at
// capacity and a bank with every window full take a measurement without
// allocating.
func TestMemoryStoreAtCapacityAllocs(t *testing.T) {
	m := NewMemory()
	key := SeriesKey{Resource: ResourceBandwidth, Source: "a", Target: "b"}
	rng := rand.New(rand.NewSource(1))
	store := func() {
		if err := m.Store(key, Measurement{Value: 50 + rng.NormFloat64()*5}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*seriesCapacity; i++ {
		store()
	}
	if avg := testing.AllocsPerRun(200, store); avg != 0 {
		t.Fatalf("Store at capacity allocates %v objects/op, want 0", avg)
	}
	hist, _ := m.History(key)
	if latest, _ := m.Latest(key); len(hist) != seriesCapacity || hist[len(hist)-1] != latest {
		t.Fatalf("history after wrap: %d records, newest %v, Latest %v", len(hist), hist[len(hist)-1], latest)
	}
}
