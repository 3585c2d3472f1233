package netsim

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// TestLinkDownStallsByDefault pins the legacy semantics: without
// FailOnDown a flow crossing a downed link stalls at zero rate and
// resumes when the link comes back, never observing a failure.
func TestLinkDownStallsByDefault(t *testing.T) {
	eng, net := buildPair(t, LinkConfig{CapacityBps: 10 * mbps, Delay: time.Millisecond})
	f, err := net.StartFlow("a", "b", 10e6, FlowOptions{WindowBytes: 1 << 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkDown("a", "b", true); err != nil {
		t.Fatal(err)
	}
	if f.State() != FlowActive {
		t.Fatalf("flow state = %v, want active (stalled)", f.State())
	}
	if err := eng.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.RateBps() != 0 {
		t.Fatalf("stalled flow rate = %v, want 0", f.RateBps())
	}
	if err := net.SetLinkDown("a", "b", false); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if f.State() != FlowDone {
		t.Fatalf("flow state after recovery = %v, want done", f.State())
	}
}

// TestFailOnDownKillsCrossingFlows checks that opted-in flows crossing the
// downed link fail immediately with their done callback invoked, while
// flows elsewhere and legacy flows on the same link are untouched.
func TestFailOnDownKillsCrossingFlows(t *testing.T) {
	eng := simulation.NewEngine()
	net := New(eng)
	for _, n := range []string{"a", "b", "c"} {
		if err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	cfg := LinkConfig{CapacityBps: 10 * mbps, Delay: time.Millisecond}
	for _, pair := range [][2]string{{"a", "b"}, {"a", "c"}} {
		if err := net.AddLink(pair[0], pair[1], cfg); err != nil {
			t.Fatal(err)
		}
	}
	var failed *Flow
	victim, err := net.StartFlow("a", "b", 100e6, FlowOptions{FailOnDown: true}, FlowFunc(func(f *Flow) { failed = f }))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := net.StartFlow("a", "b", 100e6, FlowOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := net.StartFlow("a", "c", 100e6, FlowOptions{FailOnDown: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkDown("a", "b", true); err != nil {
		t.Fatal(err)
	}
	if victim.State() != FlowFailed {
		t.Fatalf("victim state = %v, want failed", victim.State())
	}
	if failed != victim {
		t.Fatal("done callback not invoked with the failed flow")
	}
	if got := victim.DeliveredPayloadBytes(); got <= 0 || got >= 100e6 {
		t.Fatalf("delivered payload = %d, want partial progress", got)
	}
	if legacy.State() != FlowActive {
		t.Fatalf("legacy flow state = %v, want active (stalled)", legacy.State())
	}
	if bystander.State() != FlowActive {
		t.Fatalf("bystander state = %v, want active", bystander.State())
	}
	// The bystander must still complete normally.
	if err := net.CancelFlow(legacy); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if bystander.State() != FlowDone {
		t.Fatalf("bystander final state = %v, want done", bystander.State())
	}
}

// TestStartFlowRejectsDownPath checks the fail-fast path: starting a
// FailOnDown flow over an already-down link returns ErrPathDown, while a
// legacy flow is accepted (and stalls).
func TestStartFlowRejectsDownPath(t *testing.T) {
	eng, net := buildPair(t, LinkConfig{CapacityBps: 10 * mbps, Delay: time.Millisecond})
	_ = eng
	if err := net.SetLinkDown("a", "b", true); err != nil {
		t.Fatal(err)
	}
	if _, err := net.StartFlow("a", "b", 1e6, FlowOptions{FailOnDown: true}, nil); !errors.Is(err, ErrPathDown) {
		t.Fatalf("StartFlow over down path err = %v, want ErrPathDown", err)
	}
	f, err := net.StartFlow("a", "b", 1e6, FlowOptions{}, nil)
	if err != nil {
		t.Fatalf("legacy StartFlow over down path err = %v, want nil", err)
	}
	if f.State() != FlowActive {
		t.Fatalf("legacy flow state = %v, want active", f.State())
	}
}

// TestFailedFlowCannotBeCanceled pins that a failed flow is terminal.
func TestFailedFlowCannotBeCanceled(t *testing.T) {
	eng, net := buildPair(t, LinkConfig{CapacityBps: 10 * mbps, Delay: time.Millisecond})
	f, err := net.StartFlow("a", "b", 10e6, FlowOptions{FailOnDown: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkDown("a", "b", true); err != nil {
		t.Fatal(err)
	}
	if f.State() != FlowFailed {
		t.Fatalf("state = %v, want failed", f.State())
	}
	if err := net.CancelFlow(f); err == nil {
		t.Fatal("CancelFlow on failed flow succeeded, want error")
	}
	if got, want := FlowFailed.String(), "failed"; got != want {
		t.Fatalf("FlowFailed.String() = %q, want %q", got, want)
	}
}
