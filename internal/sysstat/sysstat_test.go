package sysstat

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// fakeHost is a controllable Target.
type fakeHost struct{ io float64 }

func (f *fakeHost) IOLoad() float64 { return f.io }

func newCollector(t *testing.T, target Target) (*simulation.Engine, *Collector) {
	t.Helper()
	eng := simulation.NewEngine()
	c, err := NewCollector(eng, target)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

// iostat samples every 2 s, the first sample at t=0: samples at t=0, 2,
// ..., 20 inclusive = 11.
func TestSamplingCadence(t *testing.T) {
	if Period != 2*time.Second {
		t.Fatalf("Period = %v, want 2s", Period)
	}
	eng, c := newCollector(t, &fakeHost{io: 0.2})
	if err := eng.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.Revision(); got != 11 {
		t.Fatalf("revision after 20 s = %d, want 11", got)
	}
}

func TestIdlePercentsTrackTarget(t *testing.T) {
	h := &fakeHost{io: 0.30}
	eng, c := newCollector(t, h)
	for i, io := range []float64{0.30, 0.75, 0, 1, 0.1} {
		h.io = io
		if err := eng.RunUntil(time.Duration(i+1) * Period); err != nil {
			t.Fatal(err)
		}
		got, err := c.IOIdlePercent()
		if err != nil {
			t.Fatal(err)
		}
		// util is copied, not jittered: the idle figure is exact.
		if want := 100 * (1 - io); got != want {
			t.Fatalf("load %v: IO idle = %v, want exactly %v", io, got, want)
		}
	}
}

func TestNoSamplesErrors(t *testing.T) {
	_, c := newCollector(t, &fakeHost{})
	// No events run yet: even the immediate sample hasn't fired.
	if _, err := c.IOIdlePercent(); err != ErrNoSamples {
		t.Fatalf("IOIdlePercent err = %v, want ErrNoSamples", err)
	}
}

// TestSetPausedFreezes pins the monitor outage: while paused, neither the
// reading nor the revision moves, and both resume with the next tick.
func TestSetPausedFreezes(t *testing.T) {
	h := &fakeHost{io: 0.5}
	eng, c := newCollector(t, h)
	if err := eng.RunUntil(3 * Period); err != nil {
		t.Fatal(err)
	}
	c.SetPaused(true)
	rev := c.Revision()
	h.io = 0.9
	if err := eng.RunUntil(10 * Period); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.IOIdlePercent(); c.Revision() != rev || got != 50 {
		t.Fatalf("paused collector moved: revision %d -> %d, idle %v, want 50", rev, c.Revision(), got)
	}
	c.SetPaused(false)
	if err := eng.RunUntil(11 * Period); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.IOIdlePercent(); c.Revision() != rev+1 || got != 100*(1-h.io) {
		t.Fatalf("resumed collector: revision %d, idle %v; want %d, %v", c.Revision(), got, rev+1, 100*(1-h.io))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewCollector(simulation.NewEngine(), nil); err == nil {
		t.Fatal("nil target should be rejected")
	}
}

// TestSampleAllocs pins the tick: one sample allocates nothing.
func TestSampleAllocs(t *testing.T) {
	eng, c := newCollector(t, &fakeHost{io: 0.2})
	if avg := testing.AllocsPerRun(100, func() { c.sample(eng.Now()) }); avg != 0 {
		t.Fatalf("sample allocates %v objects/op, want 0", avg)
	}
}

// Property: for any load level the idle percentage is 100·(1−load),
// inside [0,100].
func TestPropertyPercentagesSane(t *testing.T) {
	f := func(ioRaw uint8) bool {
		io := float64(ioRaw) / 255
		eng := simulation.NewEngine()
		c, err := NewCollector(eng, &fakeHost{io: io})
		if err != nil || eng.RunUntil(Period) != nil {
			return false
		}
		v, err := c.IOIdlePercent()
		return err == nil && v == 100*(1-io) && v >= 0 && v <= 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
