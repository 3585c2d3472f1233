package info

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/gridstate"
	"github.com/hpclab/datagrid/internal/mds"
	"github.com/hpclab/datagrid/internal/nws"
	"github.com/hpclab/datagrid/internal/sysstat"
)

// TestSnapshotLookupMatchesBuildHostPerf is the snapshot-vs-pull
// equivalence check: for every tracked host and at several instants, the
// snapshot's entry must be byte-for-byte the gridstate.HostPerf the live pull
// path (the builder) produces, successes and failures alike.
func TestSnapshotLookupMatchesBuildHostPerf(t *testing.T) {
	eng, tb, dep := paperSetup(t)
	hit0, _ := tb.Host("hit0")
	if err := hit0.SetBaseCPULoad(0.5); err != nil {
		t.Fatal(err)
	}
	hosts := []string{"alpha1", "alpha4", "hit0", "lz02"}
	for _, at := range []time.Duration{30 * time.Second, 2 * time.Minute, 5 * time.Minute} {
		if err := eng.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		for _, h := range hosts {
			snap, snapErr := dep.Server.Snapshot(eng.Now()).Lookup(h)
			if errors.Is(snapErr, gridstate.ErrUntracked) {
				t.Fatalf("%s should be tracked by the deployment", h)
			}
			live, liveErr := dep.Server.BuildHostPerf(h, eng.Now())
			if (snapErr == nil) != (liveErr == nil) {
				t.Fatalf("%s at %v: snapshot err %v vs live err %v", h, at, snapErr, liveErr)
			}
			if snapErr != nil {
				if snapErr.Error() != liveErr.Error() {
					t.Fatalf("%s at %v: error text diverged:\n%v\n%v", h, at, snapErr, liveErr)
				}
				continue
			}
			if snap != live {
				t.Fatalf("%s at %v: snapshot report %+v != live report %+v", h, at, snap, live)
			}
		}
	}
}

// TestStaleBandwidthYieldsErrNoData: when a candidate's bandwidth series
// goes stale (its probe path died), both read paths must report the host
// unmonitored with ErrNoData.
func TestStaleBandwidthYieldsErrNoData(t *testing.T) {
	eng, _, dep := paperSetup(t)
	if err := eng.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Kill hit0's bandwidth probes and let the series age past the
	// deployment's staleness bound (6 probe periods = 60 s).
	dep.Sensors["hit0"].SetPaused(true)
	if err := eng.RunUntil(2*time.Minute + 90*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Server.Snapshot(eng.Now()).Lookup("hit0"); !errors.Is(err, ErrNoData) {
		t.Fatalf("snapshot path err = %v, want ErrNoData", err)
	}
	if _, err := dep.Server.BuildHostPerf("hit0", eng.Now()); !errors.Is(err, ErrNoData) {
		t.Fatalf("live path err = %v, want ErrNoData", err)
	}
	// The other candidates keep reporting: staleness is per host.
	if _, err := dep.Server.Snapshot(eng.Now()).Lookup("alpha4"); err != nil {
		t.Fatalf("alpha4 should still report: %v", err)
	}
}

// TestLatencyBestEffort: a pair with bandwidth but no latency sensor must
// report LatencyMs == 0 without error — latency is an optional factor.
func TestLatencyBestEffort(t *testing.T) {
	eng, tb, dep := paperSetup(t)
	// The deployment runs no latency sensor; install one beside it for
	// hit0, as the latency ablation does.
	if _, err := nws.NewLatencySensor(eng, dep.NWS, tb.Network(), "hit0", "alpha1", 1); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A hand-wired server whose NWS memory holds only a bandwidth series
	// for hit0->alpha1 (no latency), with MDS and sysstat supplying the
	// idle factors.
	mem := nws.NewMemory()
	key := nws.SeriesKey{Resource: nws.ResourceBandwidth, Source: "hit0", Target: "alpha1"}
	for i := 0; i < 5; i++ {
		if err := mem.Store(key, nws.Measurement{At: time.Duration(i) * time.Second, Value: 60}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer("alpha1", tb.Network(), mem, dep.TopGIIS, map[string]*sysstat.Collector{"hit0": dep.Sysstat["hit0"]})
	if err != nil {
		t.Fatal(err)
	}
	r, err := srv.BuildHostPerf("hit0", eng.Now())
	if err != nil {
		t.Fatal(err)
	}
	if r.LatencyMs != 0 {
		t.Fatalf("LatencyMs = %v, want 0 without a latency sensor", r.LatencyMs)
	}
	if r.BandwidthMbps != 60 {
		t.Fatalf("BandwidthMbps = %v", r.BandwidthMbps)
	}
	// The deployment's NWS memory now holds a latency series for hit0, so
	// there the factor is populated.
	full, err := dep.Server.Snapshot(eng.Now()).Lookup("hit0")
	if err != nil {
		t.Fatal(err)
	}
	if full.LatencyMs <= 0 {
		t.Fatalf("deployment LatencyMs = %v, want > 0", full.LatencyMs)
	}
}

// faultyCollector fails with a non-ErrNoSamples error — a broken monitor,
// not an empty one.
type faultyCollector struct{ err error }

func (f faultyCollector) IOIdlePercent() (float64, error) { return 0, f.err }

// noSamplesCollector fails with (wrapped) ErrNoSamples — a monitor that
// simply has not sampled yet.
type noSamplesCollector struct{}

func (noSamplesCollector) IOIdlePercent() (float64, error) {
	return 0, fmt.Errorf("cold start: %w", sysstat.ErrNoSamples)
}

// TestIOIdlePropagatesCollectorFault: a collector failing for any reason
// other than "no samples yet" must surface its error, not be reported as
// a host that is merely unmonitored.
func TestIOIdlePropagatesCollectorFault(t *testing.T) {
	eng, _, dep := paperSetup(t)
	if err := eng.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk controller on fire")
	dep.Server.sys["hit0"] = faultyCollector{err: boom}
	_, err := dep.Server.BuildHostPerf("hit0", eng.Now())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the collector fault propagated", err)
	}
	if errors.Is(err, ErrNoData) {
		t.Fatal("a real collector fault must not masquerade as ErrNoData")
	}
}

// TestIOIdleNoSamplesIsErrNoData: a collector that has not sampled yet
// (wrapped ErrNoSamples) leaves the host unmonitored — sysstat is the only
// source of I/O state, so there is nothing to fall back to.
func TestIOIdleNoSamplesIsErrNoData(t *testing.T) {
	eng, _, dep := paperSetup(t)
	if err := eng.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	dep.Server.sys["hit0"] = noSamplesCollector{}
	if _, err := dep.Server.BuildHostPerf("hit0", eng.Now()); !errors.Is(err, ErrNoData) {
		t.Fatalf("no-samples collector err = %v, want ErrNoData", err)
	}
}

// TestFilterCacheIsPerHost: repeated reports reuse the host's MDS filter
// instead of rebuilding it.
func TestFilterCacheIsPerHost(t *testing.T) {
	eng, _, dep := paperSetup(t)
	if err := eng.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := dep.Server.BuildHostPerf("hit0", eng.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(dep.Server.filters); n != 1 {
		t.Fatalf("filter cache has %d entries after repeated hit0 reports, want 1", n)
	}
	if _, err := dep.Server.BuildHostPerf("alpha4", eng.Now()); err != nil {
		t.Fatal(err)
	}
	if n := len(dep.Server.filters); n != 2 {
		t.Fatalf("filter cache has %d entries, want 2", n)
	}
	f := dep.Server.filters["hit0"]
	if f == nil {
		t.Fatal("cached filter must be built")
	}
	// The cached filter matches exactly its host's entry.
	es, err := dep.TopGIIS.Search(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 {
		t.Fatalf("cpu filter matched %v", es)
	}
	if h, _ := es[0].Attr(mds.AttrHostName); h != "hit0" {
		t.Fatalf("cpu filter matched host %q", h)
	}
}

// TestSnapshotEpochAdvancesWithMonitoring: the server's snapshot is reused
// while nothing moved and republishes when the monitors sample.
func TestSnapshotEpochAdvancesWithMonitoring(t *testing.T) {
	eng, _, dep := paperSetup(t)
	if err := eng.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	s1 := dep.Server.Snapshot(eng.Now())
	s2 := dep.Server.Snapshot(eng.Now())
	if s1 != s2 {
		t.Fatal("same instant, no substrate movement: snapshot must be reused")
	}
	if err := eng.RunUntil(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	s3 := dep.Server.Snapshot(eng.Now())
	if s3.Epoch() <= s1.Epoch() {
		t.Fatalf("epoch %d after monitors sampled, want > %d", s3.Epoch(), s1.Epoch())
	}
	// Tracked set is the deployment's monitored hosts.
	for _, h := range []string{"alpha1", "alpha4", "hit0", "lz02"} {
		if _, err := s3.Lookup(h); errors.Is(err, gridstate.ErrUntracked) {
			t.Fatalf("snapshot should cover %s: %v", h, err)
		}
	}
	// An untracked testbed host is not in the snapshot at all.
	if _, err := s3.Lookup("lz04"); !errors.Is(err, gridstate.ErrUntracked) {
		t.Fatalf("lz04 err = %v, want ErrUntracked", err)
	}
}
