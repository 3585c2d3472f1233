package sysstat

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// fakeHost is a controllable Target.
type fakeHost struct {
	cpu, io float64
}

func (f *fakeHost) CPULoad() float64 { return f.cpu }
func (f *fakeHost) IOLoad() float64  { return f.io }

func newCollector(t *testing.T, target Target, cfg Config) (*simulation.Engine, *Collector) {
	t.Helper()
	eng := simulation.NewEngine()
	c, err := NewCollector(eng, "alpha1", target, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

func TestSamplingCadence(t *testing.T) {
	eng, c := newCollector(t, &fakeHost{cpu: 0.5, io: 0.2}, Config{Period: time.Second})
	if err := eng.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// immediate=true: samples at t=0..10 inclusive = 11.
	if got := len(c.CPUHistory()); got != 11 {
		t.Fatalf("cpu samples = %d, want 11", got)
	}
	if got := len(c.IOHistory()); got != 11 {
		t.Fatalf("io samples = %d, want 11", got)
	}
	last, err := c.LatestCPU()
	if err != nil {
		t.Fatal(err)
	}
	if last.At != 10*time.Second {
		t.Fatalf("last sample at %v", last.At)
	}
}

func TestIdlePercentsTrackTarget(t *testing.T) {
	h := &fakeHost{cpu: 0.40, io: 0.30}
	eng, c := newCollector(t, h, Config{Period: time.Second})
	if err := eng.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	cpuIdle, err := c.CPUIdlePercent()
	if err != nil {
		t.Fatal(err)
	}
	// busy = 40% => idle ~ 60% (synthesized columns add small jitter).
	if cpuIdle < 50 || cpuIdle > 70 {
		t.Fatalf("CPU idle = %v, want ~60", cpuIdle)
	}
	ioIdle, err := c.IOIdlePercent()
	if err != nil {
		t.Fatal(err)
	}
	if ioIdle != 70 {
		t.Fatalf("IO idle = %v, want exactly 70 (util is copied, not jittered)", ioIdle)
	}
}

func TestNoSamplesErrors(t *testing.T) {
	eng := simulation.NewEngine()
	c, err := NewCollector(eng, "h", &fakeHost{}, Config{Period: time.Hour}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// No events run yet: even the immediate sample hasn't fired.
	if _, err := c.LatestCPU(); err != ErrNoSamples {
		t.Fatalf("LatestCPU err = %v", err)
	}
	if _, err := c.LatestIO(); err != ErrNoSamples {
		t.Fatalf("LatestIO err = %v", err)
	}
	if _, err := c.CPUIdlePercent(); err != ErrNoSamples {
		t.Fatalf("CPUIdlePercent err = %v", err)
	}
	if _, err := c.IOIdlePercent(); err != ErrNoSamples {
		t.Fatalf("IOIdlePercent err = %v", err)
	}
	if _, err := c.AverageCPUIdle(time.Minute, 0); err != ErrNoSamples {
		t.Fatalf("AverageCPUIdle err = %v", err)
	}
}

func TestHistoryBounded(t *testing.T) {
	eng, c := newCollector(t, &fakeHost{}, Config{Period: time.Second, HistorySize: 5})
	if err := eng.RunUntil(100 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(c.CPUHistory()); got != 5 {
		t.Fatalf("bounded cpu history = %d, want 5", got)
	}
	recs := c.CPUHistory()
	if recs[4].At != 100*time.Second {
		t.Fatalf("history should keep newest; last at %v", recs[4].At)
	}
	// The wrapped history reads oldest first everywhere it is read.
	for i, r := range c.IOHistory() {
		if want := time.Duration(96+i) * time.Second; r.At != want || recs[i].At != want {
			t.Fatalf("record %d at %v (io) / %v (cpu), want %v", i, r.At, recs[i].At, want)
		}
	}
	if lines := strings.Split(strings.TrimSpace(c.RenderSar(2)), "\n"); len(lines) != 3 ||
		!strings.HasPrefix(lines[1], "00:01:39") || !strings.HasPrefix(lines[2], "00:01:40") {
		t.Fatalf("RenderSar(2) after wrap:\n%s", c.RenderSar(2))
	}
}

// TestSampleAtHistorySizeAllocs pins the steady-state tick: with both
// histories full, one sample overwrites in place and allocates nothing.
func TestSampleAtHistorySizeAllocs(t *testing.T) {
	eng, c := newCollector(t, &fakeHost{cpu: 0.5, io: 0.2}, Config{Period: time.Second, HistorySize: 8})
	if err := eng.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() { c.sample(eng.Now()) }); avg != 0 {
		t.Fatalf("sample at HistorySize allocates %v objects/op, want 0", avg)
	}
}

func TestAverageCPUIdleWindow(t *testing.T) {
	h := &fakeHost{cpu: 0}
	eng, c := newCollector(t, h, Config{Period: time.Second})
	if err := eng.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	h.cpu = 1.0 // fully busy from t=5
	if err := eng.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	recent, err := c.AverageCPUIdle(4*time.Second, eng.Now())
	if err != nil {
		t.Fatal(err)
	}
	if recent > 20 {
		t.Fatalf("recent idle average = %v, want near 0 (host busy)", recent)
	}
	all, err := c.AverageCPUIdle(time.Hour, eng.Now())
	if err != nil {
		t.Fatal(err)
	}
	if all < recent {
		t.Fatalf("wider window (%v) should include the idle early period (recent %v)", all, recent)
	}
}

func TestStop(t *testing.T) {
	eng, c := newCollector(t, &fakeHost{}, Config{Period: time.Second})
	if err := eng.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	n := len(c.CPUHistory())
	if err := eng.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(c.CPUHistory()) != n {
		t.Fatal("collector kept sampling after Stop")
	}
}

func TestConfigValidation(t *testing.T) {
	eng := simulation.NewEngine()
	if _, err := NewCollector(eng, "h", nil, Config{Period: time.Second}, 1); err == nil {
		t.Fatal("nil target should be rejected")
	}
	if _, err := NewCollector(eng, "", &fakeHost{}, Config{Period: time.Second}, 1); err == nil {
		t.Fatal("empty host should be rejected")
	}
	if _, err := NewCollector(eng, "h", &fakeHost{}, Config{}, 1); err == nil {
		t.Fatal("zero period should be rejected")
	}
	if _, err := NewCollector(eng, "h", &fakeHost{}, Config{Period: time.Second, HistorySize: -1}, 1); err == nil {
		t.Fatal("negative history should be rejected")
	}
	if _, err := NewCollector(eng, "h", &fakeHost{}, Config{Period: time.Second, DiskPeakTPS: -1}, 1); err == nil {
		t.Fatal("negative disk peak should be rejected")
	}
}

func TestRenderSar(t *testing.T) {
	eng, c := newCollector(t, &fakeHost{cpu: 0.25, io: 0.1}, Config{Period: time.Second})
	if err := eng.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	out := c.RenderSar(0)
	for _, col := range []string{"%user", "%system", "%iowait", "%idle", "alpha1", "00:00:02"} {
		if !strings.Contains(out, col) {
			t.Fatalf("sar output missing %q:\n%s", col, out)
		}
	}
	limited := c.RenderSar(2)
	if strings.Count(limited, "\n") != 3 { // header + 2 rows
		t.Fatalf("RenderSar(2) rows wrong:\n%s", limited)
	}
}

func TestRenderIostat(t *testing.T) {
	eng, c := newCollector(t, &fakeHost{cpu: 0.25, io: 0.5}, Config{Period: time.Second})
	if err := eng.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	out := c.RenderIostat(0)
	for _, col := range []string{"tps", "kB_read/s", "kB_wrtn/s", "%util", "50.00"} {
		if !strings.Contains(out, col) {
			t.Fatalf("iostat output missing %q:\n%s", col, out)
		}
	}
}

func TestActivityFileRoundTrip(t *testing.T) {
	eng, c := newCollector(t, &fakeHost{cpu: 0.3, io: 0.2}, Config{Period: time.Second})
	if err := eng.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteActivityFile(&buf); err != nil {
		t.Fatal(err)
	}
	host, cpu, io, err := ReadActivityFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if host != "alpha1" {
		t.Fatalf("host = %q", host)
	}
	if len(cpu) != len(c.CPUHistory()) || len(io) != len(c.IOHistory()) {
		t.Fatalf("round trip lost records: %d/%d cpu, %d/%d io",
			len(cpu), len(c.CPUHistory()), len(io), len(c.IOHistory()))
	}
	want := c.CPUHistory()
	for i := range cpu {
		if cpu[i] != want[i] {
			t.Fatalf("cpu[%d] = %+v, want %+v", i, cpu[i], want[i])
		}
	}
}

func TestActivityFileCorrupt(t *testing.T) {
	if _, _, _, err := ReadActivityFile(strings.NewReader("{not json")); err == nil {
		t.Fatal("corrupt file should error")
	}
	if _, _, _, err := ReadActivityFile(strings.NewReader(`{"kind":"weird","host":"h"}`)); err == nil {
		t.Fatal("unknown kind should error")
	}
	if _, _, _, err := ReadActivityFile(strings.NewReader(`{"kind":"cpu","host":"h"}`)); err == nil {
		t.Fatal("cpu line without record should error")
	}
	if _, _, _, err := ReadActivityFile(strings.NewReader(`{"kind":"io","host":"h"}`)); err == nil {
		t.Fatal("io line without record should error")
	}
	// Blank lines are tolerated.
	if _, _, _, err := ReadActivityFile(strings.NewReader("\n\n")); err != nil {
		t.Fatalf("blank lines should be fine: %v", err)
	}
}

// Property: for any load levels, synthesized percentages stay within
// [0,100] and idle decreases as CPU load increases.
func TestPropertyPercentagesSane(t *testing.T) {
	f := func(cpuRaw, ioRaw uint8) bool {
		cpu := float64(cpuRaw) / 255
		io := float64(ioRaw) / 255
		eng := simulation.NewEngine()
		c, err := NewCollector(eng, "h", &fakeHost{cpu: cpu, io: io}, Config{Period: time.Second}, 3)
		if err != nil {
			return false
		}
		if err := eng.RunUntil(time.Second); err != nil {
			return false
		}
		r, err := c.LatestCPU()
		if err != nil {
			return false
		}
		for _, v := range []float64{r.User, r.System, r.IOWait, r.Idle} {
			if v < 0 || v > 100 {
				return false
			}
		}
		ior, err := c.LatestIO()
		if err != nil {
			return false
		}
		return ior.TPS >= 0 && ior.ReadKBps >= 0 && ior.WriteKBps >= 0 && ior.Util == io
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
