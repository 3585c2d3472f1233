package info

import (
	"errors"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/gridstate"
	"github.com/hpclab/datagrid/internal/mds"
	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/nws"
	"github.com/hpclab/datagrid/internal/simulation"
)

// paperSetup deploys monitoring on the paper testbed with alpha1 local.
func paperSetup(t *testing.T) (*simulation.Engine, *cluster.Testbed, *Deployment) {
	t.Helper()
	eng := simulation.NewEngine()
	tb, err := cluster.NewPaperTestbed(eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(tb, DeploymentConfig{
		Local:   "alpha1",
		Remotes: []string{"alpha4", "hit0", "lz02"},
		Seed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, tb, dep
}

func TestDeployValidation(t *testing.T) {
	eng := simulation.NewEngine()
	tb, err := cluster.NewPaperTestbed(eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Deploy(nil, DeploymentConfig{Local: "alpha1"}); err == nil {
		t.Fatal("nil testbed should be rejected")
	}
	if _, err := Deploy(tb, DeploymentConfig{}); err == nil {
		t.Fatal("missing local should be rejected")
	}
	if _, err := Deploy(tb, DeploymentConfig{Local: "ghost"}); err == nil {
		t.Fatal("unknown local should be rejected")
	}
	if _, err := Deploy(tb, DeploymentConfig{Local: "alpha1", Remotes: []string{"ghost"}}); err == nil {
		t.Fatal("unknown remote should be rejected")
	}
	if _, err := Deploy(tb, DeploymentConfig{Local: "alpha1", Remotes: []string{"alpha1"}}); err == nil {
		t.Fatal("local listed as remote should be rejected")
	}
}

func TestReportGathersThreeFactors(t *testing.T) {
	eng, tb, dep := paperSetup(t)
	// Put load on the candidates so the factors are distinguishable.
	hit0, _ := tb.Host("hit0")
	if err := hit0.SetBaseCPULoad(0.6); err != nil {
		t.Fatal(err)
	}
	if err := hit0.SetBaseIOLoad(0.4); err != nil {
		t.Fatal(err)
	}
	// Let sensors take several probes.
	if err := eng.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	r, err := dep.Server.Snapshot(eng.Now()).Lookup("hit0")
	if err != nil {
		t.Fatal(err)
	}
	if r.Host != "hit0" || r.Local != "alpha1" {
		t.Fatalf("report endpoints = %s, %s", r.Host, r.Local)
	}
	if r.TheoreticalMbps != 100 {
		t.Fatalf("theoretical = %v, want 100 (THU-HIT backbone)", r.TheoreticalMbps)
	}
	if r.BandwidthMbps <= 0 || r.BandwidthPercent <= 0 || r.BandwidthPercent > 100 {
		t.Fatalf("bandwidth = %v Mb/s (%v%%)", r.BandwidthMbps, r.BandwidthPercent)
	}
	if r.CPUIdlePercent < 30 || r.CPUIdlePercent > 50 {
		t.Fatalf("cpu idle = %v, want ~40 (load 0.6)", r.CPUIdlePercent)
	}
	if r.IOIdlePercent < 50 || r.IOIdlePercent > 70 {
		t.Fatalf("io idle = %v, want ~60 (load 0.4)", r.IOIdlePercent)
	}
}

func TestReportLocalHost(t *testing.T) {
	eng, _, dep := paperSetup(t)
	if err := eng.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	r, err := dep.Server.Snapshot(eng.Now()).Lookup("alpha1")
	if err != nil {
		t.Fatal(err)
	}
	if r.BandwidthPercent != 100 {
		t.Fatalf("local bandwidth percent = %v, want 100", r.BandwidthPercent)
	}
	if r.CPUIdlePercent <= 0 || r.IOIdlePercent <= 0 {
		t.Fatalf("local report = %+v", r)
	}
}

func TestReportUnmonitoredHost(t *testing.T) {
	eng, _, dep := paperSetup(t)
	if err := eng.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// lz04 is on the testbed but has no bandwidth sensor to alpha1: the
	// builder reports it unmonitored, and the snapshot does not track it.
	if _, err := dep.Server.BuildHostPerf("lz04", eng.Now()); !errors.Is(err, ErrNoData) {
		t.Fatalf("unmonitored host build err = %v, want ErrNoData", err)
	}
	if _, err := dep.Server.Snapshot(eng.Now()).Lookup("lz04"); !errors.Is(err, gridstate.ErrUntracked) {
		t.Fatalf("unmonitored host lookup err = %v, want ErrUntracked", err)
	}
}

func TestBandwidthPercentReflectsContention(t *testing.T) {
	eng, tb, dep := paperSetup(t)
	if err := eng.RunUntil(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	quiet, err := dep.Server.Snapshot(eng.Now()).Lookup("lz02")
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the Li-Zen -> THU path with several competing flows.
	for i := 0; i < 6; i++ {
		if _, err := tb.Network().StartFlow("lz03", "alpha2", 1<<33, netsim.FlowOptions{WindowBytes: 1 << 30}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunUntil(600 * time.Second); err != nil {
		t.Fatal(err)
	}
	busy, err := dep.Server.Snapshot(eng.Now()).Lookup("lz02")
	if err != nil {
		t.Fatal(err)
	}
	if busy.BandwidthPercent >= quiet.BandwidthPercent {
		t.Fatalf("contended bandwidth%% (%v) should drop below quiet (%v)",
			busy.BandwidthPercent, quiet.BandwidthPercent)
	}
}

func TestServerValidation(t *testing.T) {
	eng := simulation.NewEngine()
	net := netsim.New(eng, 1)
	mem := nws.NewMemory()
	dir, err := mds.NewGIIS(eng, "o=grid", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer("", net, mem, dir, nil); err == nil {
		t.Fatal("empty local should be rejected")
	}
	if _, err := NewServer("h", nil, mem, dir, nil); err == nil {
		t.Fatal("nil network should be rejected")
	}
	if _, err := NewServer("h", net, nil, dir, nil); err == nil {
		t.Fatal("nil memory should be rejected")
	}
	if _, err := NewServer("h", net, mem, nil, nil); err == nil {
		t.Fatal("nil directory should be rejected")
	}
	s, err := NewServer("h", net, mem, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Local() != "h" {
		t.Fatalf("Local = %q", s.Local())
	}
}

func TestDeployDefaultsToAllRemotes(t *testing.T) {
	eng := simulation.NewEngine()
	tb, err := cluster.NewPaperTestbed(eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(tb, DeploymentConfig{Local: "alpha1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(dep.BWSensors); got != 11 {
		t.Fatalf("bandwidth sensors = %d, want 11 (all other hosts)", got)
	}
	if len(dep.Sysstat) != 12 {
		t.Fatalf("sysstat collectors = %d, want 12", len(dep.Sysstat))
	}
	// Every NWS sensor: 11 bandwidth + 11 latency.
	if got := len(dep.Sensors); got != 22 {
		t.Fatalf("NWS sensors = %d, want 22", got)
	}
}

// TestIOIdleFallsBackToMDS covers hosts without a sysstat collector: the
// information server reads the I/O state from the MDS disk entry instead.
func TestIOIdleFallsBackToMDS(t *testing.T) {
	eng := simulation.NewEngine()
	tb, err := cluster.NewPaperTestbed(eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(tb, DeploymentConfig{Local: "alpha1", Remotes: []string{"hit0"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := tb.Host("hit0")
	if err := h.SetBaseIOLoad(0.35); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A server over the same substrates but with NO sysstat collectors.
	bare, err := NewServer("alpha1", tb.Network(), dep.NWS, dep.TopGIIS, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := bare.BuildHostPerf("hit0", eng.Now())
	if err != nil {
		t.Fatal(err)
	}
	// MDS caches for 5s; the base load was set before warmup ended, so the
	// entry reflects the load process's current walk — just check range.
	if r.IOIdlePercent <= 0 || r.IOIdlePercent > 100 {
		t.Fatalf("fallback IO idle = %v", r.IOIdlePercent)
	}
}

type fixedSearcher struct {
	entries []mds.Entry
}

func (f fixedSearcher) Search(flt mds.Filter) ([]mds.Entry, error) {
	var out []mds.Entry
	for _, e := range f.entries {
		if flt == nil || flt.Matches(e.Attrs) {
			out = append(out, e)
		}
	}
	return out, nil
}
func (f fixedSearcher) Suffix() string { return "fixed" }

// TestReportBadDirectoryData covers the malformed-MDS-entry paths.
func TestReportBadDirectoryData(t *testing.T) {
	eng := simulation.NewEngine()
	tb, err := cluster.NewPaperTestbed(eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	mem := nws.NewMemory()
	key := nws.SeriesKey{Resource: nws.ResourceBandwidth, Source: "hit0", Target: "alpha1"}
	if err := mem.Store(key, nws.Measurement{Value: 50}); err != nil {
		t.Fatal(err)
	}
	mkServer := func(entries []mds.Entry) *Server {
		s, err := NewServer("alpha1", tb.Network(), mem, fixedSearcher{entries}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// No cpu entry at all.
	s := mkServer(nil)
	if _, err := s.BuildHostPerf("hit0", 0); !errors.Is(err, ErrNoData) {
		t.Fatalf("missing cpu entry err = %v", err)
	}
	// cpu entry without the idle attribute.
	s = mkServer([]mds.Entry{{DN: "x", Attrs: mds.Attributes{
		mds.AttrHostName: "hit0", mds.AttrDevice: "cpu",
	}}})
	if _, err := s.BuildHostPerf("hit0", 0); !errors.Is(err, ErrNoData) {
		t.Fatalf("missing attr err = %v", err)
	}
	// cpu entry with a non-numeric idle value.
	s = mkServer([]mds.Entry{{DN: "x", Attrs: mds.Attributes{
		mds.AttrHostName: "hit0", mds.AttrDevice: "cpu", mds.AttrCPUFreeX100: "soon",
	}}})
	if _, err := s.BuildHostPerf("hit0", 0); err == nil {
		t.Fatal("bad numeric attr should error")
	}
	// Good cpu entry but no disk entry -> I/O fallback fails.
	s = mkServer([]mds.Entry{{DN: "x", Attrs: mds.Attributes{
		mds.AttrHostName: "hit0", mds.AttrDevice: "cpu", mds.AttrCPUFreeX100: "5000",
	}}})
	if _, err := s.BuildHostPerf("hit0", 0); !errors.Is(err, ErrNoData) {
		t.Fatalf("missing disk entry err = %v", err)
	}
	// Disk entry with a bad I/O value.
	s = mkServer([]mds.Entry{
		{DN: "c", Attrs: mds.Attributes{mds.AttrHostName: "hit0", mds.AttrDevice: "cpu", mds.AttrCPUFreeX100: "5000"}},
		{DN: "d", Attrs: mds.Attributes{mds.AttrHostName: "hit0", mds.AttrDevice: "disk", mds.AttrIOFreeX100: "NaNope"}},
	})
	if _, err := s.BuildHostPerf("hit0", 0); err == nil {
		t.Fatal("bad io attr should error")
	}
	// Fully valid entries succeed.
	s = mkServer([]mds.Entry{
		{DN: "c", Attrs: mds.Attributes{mds.AttrHostName: "hit0", mds.AttrDevice: "cpu", mds.AttrCPUFreeX100: "5000"}},
		{DN: "d", Attrs: mds.Attributes{mds.AttrHostName: "hit0", mds.AttrDevice: "disk", mds.AttrIOFreeX100: "7500"}},
	})
	r, err := s.BuildHostPerf("hit0", 0)
	if err != nil || r.CPUIdlePercent != 50 || r.IOIdlePercent != 75 {
		t.Fatalf("valid report = %+v, %v", r, err)
	}
}
