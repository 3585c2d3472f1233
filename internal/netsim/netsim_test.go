package netsim

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

const (
	mbps = 1e6
	gbps = 1e9
)

// buildPair returns a network with two hosts joined by a single duplex link.
func buildPair(t *testing.T, cfg LinkConfig) (*simulation.Engine, *Network) {
	t.Helper()
	eng := simulation.NewEngine()
	net := New(eng)
	for _, n := range []string{"a", "b"} {
		if err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.AddLink("a", "b", cfg); err != nil {
		t.Fatal(err)
	}
	return eng, net
}

func runFlow(t *testing.T, eng *simulation.Engine, net *Network, bytes int64, opts FlowOptions) *Flow {
	t.Helper()
	f, err := net.StartFlow("a", "b", bytes, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if f.State() != FlowDone {
		t.Fatalf("flow state = %v, want done", f.State())
	}
	return f
}

func TestCapacityLimitedFlow(t *testing.T) {
	eng, net := buildPair(t, LinkConfig{CapacityBps: 100 * mbps})
	f := runFlow(t, eng, net, 100_000_000, FlowOptions{WindowBytes: 1 << 30})
	want := 8 * time.Second // 1e8 bytes over 100 Mb/s
	if d := f.Duration(); d < want || d > want+10*time.Millisecond {
		t.Fatalf("duration = %v, want ~%v", d, want)
	}
}

func TestWindowLimitedFlow(t *testing.T) {
	// 1 Gb/s link but 10 ms RTT and a 64 KiB window: throughput should be
	// window/RTT = 52.4 Mb/s, far below line rate.
	eng, net := buildPair(t, LinkConfig{CapacityBps: gbps, Delay: 5 * time.Millisecond})
	f := runFlow(t, eng, net, 100_000_000, FlowOptions{WindowBytes: 64 * 1024})
	wantRate := 64 * 1024 * 8 / 0.010
	ideal := time.Duration(100_000_000 * 8 / wantRate * float64(time.Second))
	if d := f.Duration(); d < ideal || d > ideal+time.Second {
		t.Fatalf("duration = %v, want within 1s above %v", d, ideal)
	}
}

func TestMathisLossLimitedFlow(t *testing.T) {
	// 0.25% loss, 20 ms RTT: Mathis gives MSS*8/RTT * 1.22/sqrt(0.0025)
	// = 14.25 Mb/s even though the link is 1 Gb/s and windows are huge.
	eng, net := buildPair(t, LinkConfig{CapacityBps: gbps, Delay: 10 * time.Millisecond, LossRate: 0.0025})
	f := runFlow(t, eng, net, 50_000_000, FlowOptions{WindowBytes: 8 << 20})
	wantRate := 1460 * 8 / 0.020 * mathisC / math.Sqrt(0.0025)
	ideal := time.Duration(50_000_000 * 8 / wantRate * float64(time.Second))
	if d := f.Duration(); d < ideal || d > ideal*11/10 {
		t.Fatalf("duration = %v, want within 10%% above %v (rate %.1f Mb/s)", d, ideal, wantRate/mbps)
	}
}

func TestSlowStartDelaysShortTransfer(t *testing.T) {
	// A short transfer on a long-RTT path spends most of its life in slow
	// start, so its duration must exceed the steady-state ideal noticeably.
	eng, net := buildPair(t, LinkConfig{CapacityBps: 100 * mbps, Delay: 25 * time.Millisecond})
	f := runFlow(t, eng, net, 500_000, FlowOptions{WindowBytes: 1 << 30})
	ideal := time.Duration(500_000 * 8 / (100 * mbps) * float64(time.Second)) // 40 ms
	if d := f.Duration(); d < ideal*2 {
		t.Fatalf("duration = %v, want well above steady-state ideal %v", d, ideal)
	}
}

func TestFairShareTwoFlows(t *testing.T) {
	eng, net := buildPair(t, LinkConfig{CapacityBps: 100 * mbps})
	f1, err := net.StartFlow("a", "b", 50_000_000, FlowOptions{WindowBytes: 1 << 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := net.StartFlow("a", "b", 50_000_000, FlowOptions{WindowBytes: 1 << 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f1.RateBps() != f2.RateBps() {
		t.Fatalf("rates differ: %v vs %v", f1.RateBps(), f2.RateBps())
	}
	if got := f1.RateBps(); math.Abs(got-50*mbps) > 1 {
		t.Fatalf("fair share = %v, want 50 Mb/s", got)
	}
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	want := 8 * time.Second
	if d := f1.Duration(); d < want || d > want+10*time.Millisecond {
		t.Fatalf("f1 duration = %v, want ~%v", d, want)
	}
}

func TestMaxMinWithCappedFlow(t *testing.T) {
	eng, net := buildPair(t, LinkConfig{CapacityBps: 100 * mbps})
	capped, err := net.StartFlow("a", "b", 1_000_000, FlowOptions{WindowBytes: 1 << 30, RateCapBps: 20 * mbps}, nil)
	if err != nil {
		t.Fatal(err)
	}
	free, err := net.StartFlow("a", "b", 1_000_000, FlowOptions{WindowBytes: 1 << 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := capped.RateBps(); math.Abs(got-20*mbps) > 1 {
		t.Fatalf("capped rate = %v, want 20 Mb/s", got)
	}
	if got := free.RateBps(); math.Abs(got-80*mbps) > 1 {
		t.Fatalf("free rate = %v, want 80 Mb/s (max-min should hand over spare capacity)", got)
	}
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
}

func TestParallelStreamsAggregateOnLossyPath(t *testing.T) {
	// The paper's Fig. 4 effect: on a lossy WAN path one stream cannot
	// fill the pipe, so N streams cut transfer time, with diminishing
	// returns once the link saturates.
	durations := map[int]time.Duration{}
	for _, streams := range []int{1, 2, 4, 8, 16} {
		eng := simulation.NewEngine()
		net := New(eng)
		for _, n := range []string{"a", "b"} {
			if err := net.AddNode(n); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.AddLink("a", "b", LinkConfig{CapacityBps: 30 * mbps, Delay: 10 * time.Millisecond, LossRate: 0.005}); err != nil {
			t.Fatal(err)
		}
		perStream := int64(256_000_000 / streams)
		var last time.Duration
		for i := 0; i < streams; i++ {
			f, err := net.StartFlow("a", "b", perStream, FlowOptions{WindowBytes: 1 << 20}, func(f *Flow) {
				if f.Finished() > last {
					last = f.Finished()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			_ = f
		}
		if err := eng.RunUntil(math.MaxInt64); err != nil {
			t.Fatal(err)
		}
		durations[streams] = last
	}
	if !(durations[1] > durations[2] && durations[2] > durations[4]) {
		t.Fatalf("parallel streams should speed up lossy transfer: %v", durations)
	}
	// Diminishing returns: 4 -> 16 improves far less than 1 -> 4.
	gainEarly := durations[1] - durations[4]
	gainLate := durations[4] - durations[16]
	if gainLate > gainEarly/2 {
		t.Fatalf("expected diminishing returns: early gain %v, late gain %v (%v)", gainEarly, gainLate, durations)
	}
}

func TestBackgroundLoadSlowsFlow(t *testing.T) {
	eng, net := buildPair(t, LinkConfig{CapacityBps: 100 * mbps})
	if err := net.SetBackgroundLoad("a", "b", 0.5); err != nil {
		t.Fatal(err)
	}
	f := runFlow(t, eng, net, 50_000_000, FlowOptions{WindowBytes: 1 << 30})
	want := 8 * time.Second // 4e8 bits over 50 Mb/s effective
	if d := f.Duration(); d < want || d > want+10*time.Millisecond {
		t.Fatalf("duration = %v, want ~%v", d, want)
	}
}

func TestBackgroundLoadValidation(t *testing.T) {
	_, net := buildPair(t, LinkConfig{CapacityBps: mbps})
	if err := net.SetBackgroundLoad("a", "b", -0.1); err == nil {
		t.Fatal("negative load should be rejected")
	}
	if err := net.SetBackgroundLoad("a", "b", 1.0); err == nil {
		t.Fatal("load 1.0 should be rejected")
	}
	if err := net.SetBackgroundLoad("a", "nope", 0.1); err == nil {
		t.Fatal("unknown link should be rejected")
	}
}

func TestOverheadFraction(t *testing.T) {
	eng, net := buildPair(t, LinkConfig{CapacityBps: 100 * mbps})
	f := runFlow(t, eng, net, 100_000_000, FlowOptions{WindowBytes: 1 << 30, OverheadFraction: 0.10})
	want := time.Duration(1.10 * 8 * float64(time.Second))
	if d := f.Duration(); d < want-time.Millisecond || d > want+10*time.Millisecond {
		t.Fatalf("duration = %v, want ~%v with 10%% overhead", d, want)
	}
	_ = eng
}

func TestMultiHopRouting(t *testing.T) {
	eng := simulation.NewEngine()
	net := New(eng)
	for _, n := range []string{"a", "r1", "r2", "b"} {
		if err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	// Two routes a->b: via r1 (fast) and via r2 (slow). Dijkstra must pick r1.
	mustLink := func(x, y string, d time.Duration) {
		t.Helper()
		if err := net.AddLink(x, y, LinkConfig{CapacityBps: 100 * mbps, Delay: d}); err != nil {
			t.Fatal(err)
		}
	}
	mustLink("a", "r1", time.Millisecond)
	mustLink("r1", "b", time.Millisecond)
	mustLink("a", "r2", 10*time.Millisecond)
	mustLink("r2", "b", 10*time.Millisecond)
	path, err := net.Route("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || path[0].To() != "r1" {
		t.Fatalf("route should go via r1: %v -> %v", path[0].To(), path[len(path)-1].To())
	}
	rtt, err := net.PathRTT("a", "b")
	if err != nil || rtt != 4*time.Millisecond {
		t.Fatalf("RTT = %v, %v; want 4ms", rtt, err)
	}
}

func TestPathLossCompounds(t *testing.T) {
	eng := simulation.NewEngine()
	net := New(eng)
	for _, n := range []string{"a", "m", "b"} {
		if err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]string{{"a", "m"}, {"m", "b"}} {
		if err := net.AddLink(pair[0], pair[1], LinkConfig{CapacityBps: mbps, LossRate: 0.01}); err != nil {
			t.Fatal(err)
		}
	}
	loss, err := net.PathLossRate("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 0.99*0.99
	if math.Abs(loss-want) > 1e-12 {
		t.Fatalf("path loss = %v, want %v", loss, want)
	}
}

func TestNoRoute(t *testing.T) {
	eng := simulation.NewEngine()
	net := New(eng)
	for _, n := range []string{"a", "b"} {
		if err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Route("a", "b"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	if _, err := net.StartFlow("a", "b", 100, FlowOptions{}, nil); err == nil {
		t.Fatal("StartFlow without route should fail")
	}
}

func TestTopologyValidation(t *testing.T) {
	eng := simulation.NewEngine()
	net := New(eng)
	if err := net.AddNode(""); err == nil {
		t.Fatal("empty node name should fail")
	}
	if err := net.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode("a"); err == nil {
		t.Fatal("duplicate node should fail")
	}
	if err := net.AddNode("b"); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink("a", "missing", LinkConfig{CapacityBps: 1}); err == nil {
		t.Fatal("link to unknown node should fail")
	}
	if err := net.AddLink("a", "a", LinkConfig{CapacityBps: 1}); err == nil {
		t.Fatal("self link should fail")
	}
	if err := net.AddLink("a", "b", LinkConfig{CapacityBps: 0}); err == nil {
		t.Fatal("zero capacity should fail")
	}
	if err := net.AddLink("a", "b", LinkConfig{CapacityBps: 1, LossRate: 1.5}); err == nil {
		t.Fatal("loss >= 1 should fail")
	}
	if err := net.AddLink("a", "b", LinkConfig{CapacityBps: 1, Delay: -1}); err == nil {
		t.Fatal("negative delay should fail")
	}
	if err := net.AddLink("a", "b", LinkConfig{CapacityBps: 1}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink("a", "b", LinkConfig{CapacityBps: 1}); err == nil {
		t.Fatal("duplicate link should fail")
	}
}

func TestFlowValidation(t *testing.T) {
	_, net := buildPair(t, LinkConfig{CapacityBps: mbps})
	if _, err := net.StartFlow("a", "b", 0, FlowOptions{}, nil); err == nil {
		t.Fatal("zero-byte flow should fail")
	}
	if _, err := net.StartFlow("a", "b", 10, FlowOptions{WindowBytes: -1}, nil); err == nil {
		t.Fatal("negative window should fail")
	}
	if _, err := net.StartFlow("a", "a", 10, FlowOptions{}, nil); err == nil {
		t.Fatal("src == dst should fail")
	}
}

func TestCancelFlow(t *testing.T) {
	eng, net := buildPair(t, LinkConfig{CapacityBps: mbps})
	f, err := net.StartFlow("a", "b", 1_000_000, FlowOptions{}, func(*Flow) {
		t.Error("done callback should not fire for canceled flow")
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.CancelFlow(f); err != nil {
		t.Fatal(err)
	}
	if f.State() != FlowCanceled {
		t.Fatalf("state = %v, want canceled", f.State())
	}
	if err := net.CancelFlow(f); err == nil {
		t.Fatal("double cancel should fail")
	}
	if err := net.CancelFlow(nil); err == nil {
		t.Fatal("nil cancel should fail")
	}
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if len(net.Flows()) != 0 {
		t.Fatalf("ActiveFlows = %d", len(net.Flows()))
	}
}

func TestAvailableBpsAccounting(t *testing.T) {
	eng, net := buildPair(t, LinkConfig{CapacityBps: 100 * mbps})
	avail, err := net.AvailableBps("a", "b")
	if err != nil || avail != 100*mbps {
		t.Fatalf("idle avail = %v, %v", avail, err)
	}
	if _, err := net.StartFlow("a", "b", 1_000_000_000, FlowOptions{WindowBytes: 1 << 30, RateCapBps: 30 * mbps}, nil); err != nil {
		t.Fatal(err)
	}
	avail, err = net.AvailableBps("a", "b")
	if err != nil || math.Abs(avail-70*mbps) > 1 {
		t.Fatalf("avail with one capped flow = %v, %v; want 70 Mb/s", avail, err)
	}
	// Reverse direction is an independent link: still fully available.
	availRev, err := net.AvailableBps("b", "a")
	if err != nil || availRev != 100*mbps {
		t.Fatalf("reverse avail = %v, %v", availRev, err)
	}
	_ = eng
}

func TestLinkAccessors(t *testing.T) {
	_, net := buildPair(t, LinkConfig{CapacityBps: 100 * mbps})
	l, err := net.GetLink("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if l.From() != "a" || l.To() != "b" || l.Capacity() != 100*mbps {
		t.Fatalf("link accessors wrong: %v %v %v", l.From(), l.To(), l.Capacity())
	}
	if err := net.SetBackgroundLoad("a", "b", 0.25); err != nil {
		t.Fatal(err)
	}
	if l.BackgroundLoad() != 0.25 || l.EffectiveCapacity() != 75*mbps {
		t.Fatalf("bg accessors wrong: %v %v", l.BackgroundLoad(), l.EffectiveCapacity())
	}
	if u := l.Utilization(); math.Abs(u-0.25) > 1e-12 {
		t.Fatalf("utilization = %v", u)
	}
	if got := net.Nodes(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Nodes = %v", got)
	}
	if !net.HasNode("a") || net.HasNode("zzz") {
		t.Fatal("HasNode wrong")
	}
}

func TestBackgroundProcess(t *testing.T) {
	eng, net := buildPair(t, LinkConfig{CapacityBps: 100 * mbps})
	if err := net.StartBackground("a", "b", BackgroundConfig{
		Mean: 0.3, Volatility: 0.1, Reversion: 0.2, Period: time.Second,
	}, 42); err != nil {
		t.Fatal(err)
	}
	// An idle link's walk schedules nothing: a read catches it up.
	if eng.Pending() != 0 {
		t.Fatalf("pending events = %d on an idle link, want none", eng.Pending())
	}
	l, _ := net.GetLink("a", "b")
	if l.BackgroundLoad() != 0.3 {
		t.Fatalf("initial load = %v, want mean", l.BackgroundLoad())
	}
	moved := 0
	for i := 1; i <= 100; i++ {
		prev := l.BackgroundLoad()
		if err := eng.RunUntil(time.Duration(i) * time.Second); err != nil {
			t.Fatal(err)
		}
		if got := l.BackgroundLoad(); got < 0 || got > 0.95 {
			t.Fatalf("load %v escaped bounds at %ds", got, i)
		} else if got != prev {
			moved++
		}
	}
	if moved < 90 {
		t.Fatalf("load moved on %d of 100 steps", moved)
	}
	// A flow crossing the link wakes the walk: one pending step, which
	// moves the flow's rate at its own instant; the flow's end cancels it.
	f, err := net.StartFlow("a", "b", 50_000_000, FlowOptions{WindowBytes: 1 << 24}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(101*time.Second + time.Second/2); err != nil {
		t.Fatal(err)
	}
	if f.State() != FlowActive || eng.Pending() != 2 {
		t.Fatalf("flow %v with %d pending, want active with its completion and the walk's step", f.State(), eng.Pending())
	}
	rate := f.RateBps()
	if err := eng.RunUntil(102 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.RateBps() == rate || f.RateBps() != l.EffectiveCapacity() {
		t.Fatalf("rate %v before the step, %v after, effective capacity %v", rate, f.RateBps(), l.EffectiveCapacity())
	}
	if err := net.CancelFlow(f); err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending events = %d after the last flow left, want none", eng.Pending())
	}
}

func TestBackgroundProcessValidation(t *testing.T) {
	_, net := buildPair(t, LinkConfig{CapacityBps: mbps})
	bad := []BackgroundConfig{
		{Mean: -0.1, Reversion: 0.5, Period: time.Second},
		{Mean: 0.5, Volatility: -1, Reversion: 0.5, Period: time.Second},
		{Mean: 0.5, Reversion: 0, Period: time.Second},
		{Mean: 0.5, Reversion: 0.5, Period: 0},
		{Mean: 0.5, Reversion: 0.5, Period: time.Second, Max: 0.99999999},
	}
	bad[4].Max = 1.0
	for i, cfg := range bad {
		if err := net.StartBackground("a", "b", cfg, 1); err == nil {
			t.Fatalf("config %d should be rejected: %+v", i, cfg)
		}
	}
	if err := net.StartBackground("a", "zzz", BackgroundConfig{Mean: 0.1, Reversion: 0.5, Period: time.Second}, 1); err == nil {
		t.Fatal("unknown link should be rejected")
	}
	// A mean above the clamp would start the walk outside its own range.
	if err := net.StartBackground("a", "b", BackgroundConfig{Mean: 0.9, Reversion: 0.5, Period: time.Second, Max: 0.8}, 1); err == nil {
		t.Fatal("mean above max should be rejected")
	}
	// A link takes one walk: a second would overwrite the first's load.
	good := BackgroundConfig{Mean: 0.1, Reversion: 0.5, Period: time.Second}
	if err := net.StartBackground("a", "b", good, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.StartBackground("a", "b", good, 2); err == nil {
		t.Fatal("a second walk on one link should be rejected")
	}
	if err := net.StartBackground("b", "a", good, 2); err != nil {
		t.Fatalf("the other direction is its own link: %v", err)
	}
}

func TestFlowStateString(t *testing.T) {
	if FlowActive.String() != "active" || FlowDone.String() != "done" || FlowCanceled.String() != "canceled" {
		t.Fatal("FlowState strings wrong")
	}
	if FlowState(99).String() == "" {
		t.Fatal("unknown state should still render")
	}
}

func TestDoneCallbackSeesCompletedFlow(t *testing.T) {
	eng, net := buildPair(t, LinkConfig{CapacityBps: 100 * mbps})
	called := false
	_, err := net.StartFlow("a", "b", 1000, FlowOptions{}, func(f *Flow) {
		called = true
		if f.State() != FlowDone {
			t.Errorf("callback state = %v", f.State())
		}
		if f.RemainingBytes() > 0.5 {
			t.Errorf("callback remaining = %v", f.RemainingBytes())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("done callback never fired")
	}
}

// Property: total transfer time for a fixed payload split across k parallel
// streams never increases when k doubles (on a loss-limited path).
func TestPropertyMoreStreamsNeverSlower(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		loss := 0.001 + rng.Float64()*0.01
		capacity := (20 + rng.Float64()*80) * mbps
		delay := time.Duration(5+rng.Intn(30)) * time.Millisecond
		total := int64(10_000_000 + rng.Intn(50_000_000))
		prev := time.Duration(math.MaxInt64)
		for _, k := range []int{1, 2, 4, 8} {
			eng := simulation.NewEngine()
			net := New(eng)
			if err := net.AddNode("a"); err != nil {
				return false
			}
			if err := net.AddNode("b"); err != nil {
				return false
			}
			if err := net.AddLink("a", "b", LinkConfig{CapacityBps: capacity, Delay: delay, LossRate: loss}); err != nil {
				return false
			}
			var last time.Duration
			for i := 0; i < k; i++ {
				sz := total / int64(k)
				if i == 0 {
					sz += total % int64(k)
				}
				if _, err := net.StartFlow("a", "b", sz, FlowOptions{WindowBytes: 1 << 20}, func(f *Flow) {
					if f.Finished() > last {
						last = f.Finished()
					}
				}); err != nil {
					return false
				}
			}
			if err := eng.RunUntil(math.MaxInt64); err != nil {
				return false
			}
			// Allow 1% slack for ramp effects on tiny per-stream sizes.
			if prev != math.MaxInt64 && last > prev+prev/100 {
				return false
			}
			prev = last
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: allocated rates never exceed link effective capacity.
func TestPropertyAllocationRespectsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := simulation.NewEngine()
		net := New(eng)
		if err := net.AddNode("a"); err != nil {
			return false
		}
		if err := net.AddNode("b"); err != nil {
			return false
		}
		capacity := (10 + rng.Float64()*90) * mbps
		if err := net.AddLink("a", "b", LinkConfig{CapacityBps: capacity}); err != nil {
			return false
		}
		nflows := 1 + rng.Intn(12)
		var flows []*Flow
		for i := 0; i < nflows; i++ {
			fl, err := net.StartFlow("a", "b", int64(1+rng.Intn(1_000_000)), FlowOptions{
				WindowBytes: 1 << 28,
				RateCapBps:  float64(rng.Intn(2)) * (5 + rng.Float64()*20) * mbps,
			}, nil)
			if err != nil {
				return false
			}
			flows = append(flows, fl)
		}
		sum := 0.0
		for _, fl := range flows {
			sum += fl.RateBps()
		}
		if sum > capacity*(1+1e-9) {
			return false
		}
		return eng.RunUntil(math.MaxInt64) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPathRTTLoadedGrowsWithUtilization(t *testing.T) {
	eng, net := buildPair(t, LinkConfig{CapacityBps: 100 * mbps, Delay: 10 * time.Millisecond})
	quiet, err := net.PathRTTLoaded("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if quiet != 20*time.Millisecond {
		t.Fatalf("idle loaded RTT = %v, want the base 20ms", quiet)
	}
	// Saturate the link.
	if _, err := net.StartFlow("a", "b", 1<<30, FlowOptions{WindowBytes: 1 << 30}, nil); err != nil {
		t.Fatal(err)
	}
	busy, err := net.PathRTTLoaded("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if busy <= quiet {
		t.Fatalf("loaded RTT (%v) should exceed idle RTT (%v)", busy, quiet)
	}
	// Bounded: at most 10x the propagation component extra.
	if busy > 20*time.Millisecond*11 {
		t.Fatalf("queueing delay diverged: %v", busy)
	}
	// Plain PathRTT stays at propagation only.
	plain, err := net.PathRTT("a", "b")
	if err != nil || plain != 20*time.Millisecond {
		t.Fatalf("PathRTT = %v, %v", plain, err)
	}
	_ = eng
}

// Property: no flow finishes faster than the physics allow — its payload
// over the path's raw bottleneck capacity.
func TestPropertyDurationLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := (5 + rng.Float64()*95) * mbps
		delay := time.Duration(rng.Intn(20)) * time.Millisecond
		loss := rng.Float64() * 0.005
		bytes := int64(100_000 + rng.Intn(10_000_000))
		eng := simulation.NewEngine()
		net := New(eng)
		if net.AddNode("a") != nil || net.AddNode("b") != nil {
			return false
		}
		if net.AddLink("a", "b", LinkConfig{CapacityBps: capacity, Delay: delay, LossRate: loss}) != nil {
			return false
		}
		var fl *Flow
		fl, err := net.StartFlow("a", "b", bytes, FlowOptions{WindowBytes: 1 << 24}, nil)
		if err != nil {
			return false
		}
		if eng.RunUntil(math.MaxInt64) != nil || fl.State() != FlowDone {
			return false
		}
		ideal := time.Duration(float64(bytes) * 8 / capacity * float64(time.Second))
		return fl.Duration() >= ideal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
