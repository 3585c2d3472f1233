package faults

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/simulation"
)

func newBed(t *testing.T) (*simulation.Engine, *cluster.Testbed) {
	t.Helper()
	eng := simulation.NewEngine()
	tb, err := cluster.NewPaperTestbed(eng)
	if err != nil {
		t.Fatal(err)
	}
	return eng, tb
}

func TestGeneratePlanDeterministic(t *testing.T) {
	cfg := Config{
		Seed:           7,
		Horizon:        10 * time.Minute,
		MeanDuration:   30 * time.Second,
		LinkFlaps:      3,
		HostCrashes:    2,
		DiskDegrades:   2,
		MonitorOutages: 1,
		Hosts:          []string{"hit0", "lz02", "alpha4"},
		Links:          [][2]string{{"a", "b"}, {"b", "c"}},
	}
	p1, err := GeneratePlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := GeneratePlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("same config must yield the same plan")
	}
	if got := len(p1.Events); got != 8 {
		t.Fatalf("events = %d, want 8", got)
	}
	for i := 1; i < len(p1.Events); i++ {
		if p1.Events[i].At < p1.Events[i-1].At {
			t.Fatalf("plan not sorted: %v", p1.Events)
		}
	}
	cfg.Seed = 8
	p3, err := GeneratePlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p1, p3) {
		t.Fatal("different seeds should yield different plans")
	}
}

func TestGeneratePlanValidation(t *testing.T) {
	if _, err := GeneratePlan(Config{}); err == nil {
		t.Fatal("zero horizon should be rejected")
	}
	if _, err := GeneratePlan(Config{Horizon: time.Minute, HostCrashes: 1}); err == nil {
		t.Fatal("crashes without hosts should be rejected")
	}
	if _, err := GeneratePlan(Config{Horizon: time.Minute, LinkFlaps: 1}); err == nil {
		t.Fatal("flaps without links should be rejected")
	}
}

func TestHostCrashAndReboot(t *testing.T) {
	eng, tb := newBed(t)
	in, err := NewInjector(tb, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{Events: []Event{
		{Kind: HostCrash, Host: "hit0", At: 10 * time.Second, Duration: 20 * time.Second},
	}}
	if err := in.Install(plan); err != nil {
		t.Fatal(err)
	}
	if in.Installed() != 1 {
		t.Fatalf("installed = %d", in.Installed())
	}
	probe := func(at time.Duration, wantDown bool) {
		eng.Schedule(at, func(time.Duration) {
			down, err := tb.HostDown("hit0")
			if err != nil {
				t.Errorf("at %v: %v", at, err)
			}
			if down != wantDown {
				t.Errorf("at %v: down = %v, want %v", at, down, wantDown)
			}
		})
	}
	probe(5*time.Second, false)
	probe(15*time.Second, true)
	probe(35*time.Second, false)
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
}

func TestOverlappingCrashesNest(t *testing.T) {
	eng, tb := newBed(t)
	in, _ := NewInjector(tb, nil)
	plan := &Plan{Events: []Event{
		{Kind: HostCrash, Host: "hit0", At: 10 * time.Second, Duration: 20 * time.Second},
		{Kind: HostCrash, Host: "hit0", At: 20 * time.Second, Duration: 30 * time.Second},
	}}
	if err := in.Install(plan); err != nil {
		t.Fatal(err)
	}
	probe := func(at time.Duration, wantDown bool) {
		eng.Schedule(at, func(time.Duration) {
			down, _ := tb.HostDown("hit0")
			if down != wantDown {
				t.Errorf("at %v: down = %v, want %v", at, down, wantDown)
			}
		})
	}
	// The first episode's revert at 30s must not revive the host while
	// the second still covers it.
	probe(35*time.Second, true)
	probe(55*time.Second, false)
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
}

func TestDiskDegradeLoadsAndReverts(t *testing.T) {
	eng, tb := newBed(t)
	in, _ := NewInjector(tb, nil)
	h, err := tb.Host("hit0")
	if err != nil {
		t.Fatal(err)
	}
	base := h.IOLoad()
	plan := &Plan{Events: []Event{
		{Kind: DiskDegrade, Host: "hit0", At: 10 * time.Second, Duration: 20 * time.Second, Severity: 0.7},
	}}
	if err := in.Install(plan); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(15*time.Second, func(time.Duration) {
		if got := h.IOLoad(); got < base+0.69 {
			t.Errorf("during episode: IOLoad = %v, want >= %v", got, base+0.7)
		}
	})
	eng.Schedule(35*time.Second, func(time.Duration) {
		if got := h.IOLoad(); got != base {
			t.Errorf("after episode: IOLoad = %v, want base %v", got, base)
		}
	})
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
}

type fakeGate struct{ calls []bool }

func (g *fakeGate) SetMonitorsPaused(p bool) { g.calls = append(g.calls, p) }

func TestMonitorOutagesCoalesce(t *testing.T) {
	eng, tb := newBed(t)
	gate := &fakeGate{}
	in, _ := NewInjector(tb, gate)
	plan := &Plan{Events: []Event{
		{Kind: MonitorOutage, At: 10 * time.Second, Duration: 20 * time.Second},
		{Kind: MonitorOutage, At: 20 * time.Second, Duration: 20 * time.Second},
	}}
	if err := in.Install(plan); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	// Two overlapping outages pause once and resume once, at the outer
	// edges of the union.
	if !reflect.DeepEqual(gate.calls, []bool{true, false}) {
		t.Fatalf("gate calls = %v", gate.calls)
	}
}

func TestInstallValidatesTargets(t *testing.T) {
	_, tb := newBed(t)
	in, _ := NewInjector(tb, nil)
	bad := []Plan{
		{Events: []Event{{Kind: HostCrash, Host: "ghost", At: 1, Duration: 1}}},
		{Events: []Event{{Kind: LinkFlap, From: "nope", To: "hit0", At: 1, Duration: 1}}},
		{Events: []Event{{Kind: HostCrash, Host: "hit0", At: 1, Duration: 0}}},
		{Events: []Event{{Kind: DiskDegrade, Host: "hit0", At: 1, Duration: 1, Severity: 2}}},
		{Events: []Event{{Kind: MonitorOutage, At: 1, Duration: 1}}}, // nil gate
	}
	for i, p := range bad {
		p := p
		if err := in.Install(&p); err == nil {
			t.Errorf("plan %d should be rejected", i)
		}
	}
	if in.Installed() != 0 {
		t.Fatalf("rejected plans must schedule nothing, installed = %d", in.Installed())
	}
	if _, err := NewInjector(nil, nil); err == nil {
		t.Fatal("nil testbed should be rejected")
	}
}

func TestLinkFlapKillsFailFastTransfers(t *testing.T) {
	// End-to-end through netsim: a flap on hit0's LAN uplink kills a
	// fail-fast flow crossing it, and a flow started after the revert
	// completes normally.
	eng, tb := newBed(t)
	in, _ := NewInjector(tb, nil)
	sw := cluster.SwitchNode(cluster.SiteHIT)
	plan := &Plan{Events: []Event{
		{Kind: LinkFlap, From: "hit0", To: sw, At: 5 * time.Second, Duration: 10 * time.Second},
	}}
	if err := in.Install(plan); err != nil {
		t.Fatal(err)
	}
	net := tb.Network()
	var firstState, secondState netsim.FlowState
	if _, err := net.StartFlow("hit0", "alpha1", 1<<30, netsim.FlowOptions{FailOnDown: true},
		netsim.FlowFunc(func(f *netsim.Flow) { firstState = f.State() })); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(30*time.Second, func(time.Duration) {
		if _, err := net.StartFlow("hit0", "alpha1", 1<<20, netsim.FlowOptions{FailOnDown: true},
			netsim.FlowFunc(func(f *netsim.Flow) { secondState = f.State() })); err != nil {
			t.Errorf("post-revert flow: %v", err)
		}
	})
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if firstState != netsim.FlowFailed {
		t.Fatalf("flow under flap = %v, want failed", firstState)
	}
	if secondState != netsim.FlowDone {
		t.Fatalf("post-revert flow = %v, want done", secondState)
	}
}
