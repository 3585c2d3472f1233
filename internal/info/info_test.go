package info

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/gridstate"
	"github.com/hpclab/datagrid/internal/mds"
	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/nws"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/sysstat"
)

// paperSetup deploys monitoring on the paper testbed with alpha1 local.
func paperSetup(t *testing.T) (*simulation.Engine, *cluster.Testbed, *Deployment) {
	t.Helper()
	eng := simulation.NewEngine()
	tb, err := cluster.NewPaperTestbed(eng)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(tb, DeploymentConfig{
		Local:   "alpha1",
		Remotes: []string{"alpha4", "hit0", "lz02"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, tb, dep
}

func TestDeployValidation(t *testing.T) {
	eng := simulation.NewEngine()
	tb, err := cluster.NewPaperTestbed(eng)
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
	net := netsim.New(eng)
	mem := nws.NewMemory()
	dir, err := mds.NewGIIS(eng, "o=grid", 0)
	if err != nil {
		t.Fatal(err)
	}
	col, err := sysstat.NewCollector(eng, idleTarget{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sys := map[string]*sysstat.Collector{"h": col}
	if _, err := NewServer("", net, mem, dir, sys); err == nil {
		t.Fatal("empty local should be rejected")
	}
	if _, err := NewServer("h", nil, mem, dir, sys); err == nil {
		t.Fatal("nil network should be rejected")
	}
	if _, err := NewServer("h", net, nil, dir, sys); err == nil {
		t.Fatal("nil memory should be rejected")
	}
	if _, err := NewServer("h", net, mem, nil, sys); err == nil {
		t.Fatal("nil directory should be rejected")
	}
	// sysstat is the only source of I/O state: a server without
	// collectors could report no host.
	if _, err := NewServer("h", net, mem, dir, nil); err == nil {
		t.Fatal("no collectors should be rejected")
	}
	s, err := NewServer("h", net, mem, dir, sys)
	if err != nil {
		t.Fatal(err)
	}
	if s.local != "h" {
		t.Fatalf("local = %q", s.local)
	}
}

// idleTarget is a disk that is never busy.
type idleTarget struct{}

func (idleTarget) IOLoad() float64 { return 0 }

func TestDeployMonitorsListedRemotes(t *testing.T) {
	eng := simulation.NewEngine()
	tb, err := cluster.NewPaperTestbed(eng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Deploy(tb, DeploymentConfig{Local: "alpha1"}); err == nil {
		t.Fatal("a deployment with no remote should be rejected")
	}
	var remotes []string
	for _, h := range tb.Hosts() {
		if h != "alpha1" {
			remotes = append(remotes, h)
		}
	}
	dep, err := Deploy(tb, DeploymentConfig{Local: "alpha1", Remotes: remotes})
	if err != nil {
		t.Fatal(err)
	}
	// Every NWS sensor is a bandwidth sensor, one per other host.
	if got := len(dep.Sensors); got != 11 {
		t.Fatalf("NWS sensors = %d, want 11 (all other hosts)", got)
	}
	for r, s := range dep.Sensors {
		if got, want := s.Name(), "bw."+r+"->alpha1"; got != want {
			t.Fatalf("sensor for %s is %q, want %q", r, got, want)
		}
	}
	if len(dep.Sysstat) != 12 {
		t.Fatalf("sysstat collectors = %d, want 12", len(dep.Sysstat))
	}
	// No monitor feeds a latency series: only the latency ablation reads
	// one, and it installs its own sensors.
	if err := eng.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.NWS.Latest(nws.SeriesKey{Resource: nws.ResourceLatency, Source: "hit0", Target: "alpha1"}); !errors.Is(err, nws.ErrUnknownSeries) {
		t.Fatalf("latency series err = %v, want ErrUnknownSeries", err)
	}
	if _, err := dep.NWS.Latest(nws.SeriesKey{Resource: nws.ResourceBandwidth, Source: "hit0", Target: "alpha1"}); err != nil {
		t.Fatalf("bandwidth series: %v", err)
	}
}

// TestDeployGRISEntriesAreCPUOnly: every GRIS publishes one entry, the CPU
// entry, carrying exactly what filters and selection read.
func TestDeployGRISEntriesAreCPUOnly(t *testing.T) {
	eng := simulation.NewEngine()
	tb, err := cluster.NewPaperTestbed(eng)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(tb, DeploymentConfig{Local: "alpha1", Remotes: []string{"hit0"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.GRIS) != 12 {
		t.Fatalf("GRIS servers = %d, want one per host (12)", len(dep.GRIS))
	}
	want := []string{mds.AttrCPUFreeX100, mds.AttrDevice, mds.AttrHostName, mds.AttrSite}
	for _, g := range dep.GRIS {
		es, err := g.Search(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(es) != 1 {
			t.Fatalf("%s publishes %v, want one cpu entry", g.Suffix(), es)
		}
		if dev, _ := es[0].Attr(mds.AttrDevice); dev != "cpu" {
			t.Fatalf("%s publishes device %q, want cpu", g.Suffix(), dev)
		}
		for _, k := range want {
			if _, ok := es[0].Attr(k); !ok {
				t.Fatalf("%s cpu entry lacks %s", g.Suffix(), k)
			}
		}
		if n := es[0].Len(); n != len(want) {
			t.Fatalf("%s cpu entry has %d attributes, want exactly %v", g.Suffix(), n, want)
		}
	}
}

// fixedDirectory is a GRIS serving one provider per attribute set.
func fixedDirectory(t *testing.T, eng *simulation.Engine, sets ...mds.Attributes) *mds.GRIS {
	t.Helper()
	g, err := mds.NewGRIS(eng, "o=fixed", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i, attrs := range sets {
		p := mds.ProviderFunc{Rdn: "entry=" + strconv.Itoa(i), Fn: func() (mds.Attributes, error) { return attrs, nil }}
		if err := g.AddProvider(p); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// fixedCollector is a sysstat collector reporting a constant I/O idle
// percentage.
type fixedCollector float64

func (f fixedCollector) IOIdlePercent() (float64, error) { return float64(f), nil }

// TestReportBadDirectoryData covers the malformed-MDS-entry paths.
func TestReportBadDirectoryData(t *testing.T) {
	eng := simulation.NewEngine()
	tb, err := cluster.NewPaperTestbed(eng)
	if err != nil {
		t.Fatal(err)
	}
	mem := nws.NewMemory()
	key := nws.SeriesKey{Resource: nws.ResourceBandwidth, Source: "hit0", Target: "alpha1"}
	if err := mem.Store(key, nws.Measurement{Value: 50}); err != nil {
		t.Fatal(err)
	}
	// The server needs a collector; the ones that matter below are
	// hit0's, substituted per case.
	col, err := sysstat.NewCollector(eng, idleTarget{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sys := map[string]*sysstat.Collector{"alpha1": col}
	mkServer := func(sets ...mds.Attributes) *Server {
		s, err := NewServer("alpha1", tb.Network(), mem, fixedDirectory(t, eng, sets...), sys)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// No cpu entry at all.
	s := mkServer()
	if _, err := s.BuildHostPerf("hit0", 0); !errors.Is(err, ErrNoData) {
		t.Fatalf("missing cpu entry err = %v", err)
	}
	// cpu entry without the idle attribute.
	s = mkServer(mds.Attributes{mds.AttrHostName: "hit0", mds.AttrDevice: "cpu"})
	if _, err := s.BuildHostPerf("hit0", 0); !errors.Is(err, ErrNoData) {
		t.Fatalf("missing attr err = %v", err)
	}
	// cpu entry with a non-numeric idle value.
	s = mkServer(mds.Attributes{mds.AttrHostName: "hit0", mds.AttrDevice: "cpu", mds.AttrCPUFreeX100: "soon"})
	if _, err := s.BuildHostPerf("hit0", 0); err == nil {
		t.Fatal("bad numeric attr should error")
	}
	// A valid cpu entry gets as far as the I/O factor, which only a
	// sysstat collector supplies: this server has none for hit0.
	s = mkServer(mds.Attributes{mds.AttrHostName: "hit0", mds.AttrDevice: "cpu", mds.AttrCPUFreeX100: "5000"})
	if _, err := s.BuildHostPerf("hit0", 0); !errors.Is(err, ErrNoData) {
		t.Fatalf("host without an I/O collector err = %v, want ErrNoData", err)
	}
	// With a collector the same entry makes a full report.
	s.sys["hit0"] = fixedCollector(75)
	r, err := s.BuildHostPerf("hit0", 0)
	if err != nil || r.CPUIdlePercent != 50 || r.IOIdlePercent != 75 {
		t.Fatalf("valid report = %+v, %v", r, err)
	}
}
