package traffic

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/topo"
)

// testSpec is a small but fully featured run: 4 regions, skewed
// popularity, diurnal modulation, faults, failover and the popularity
// control loop all on.
func testSpec() Spec {
	return Spec{
		Seed: 42,
		Topology: topo.Spec{
			Regions: 4, SitesPerRegion: 1, ClustersPerSite: 1, HostsPerCluster: 3,
		},
		Files:            12,
		Replicas:         2,
		RatePerMinute:    30,
		Horizon:          30 * time.Minute,
		DispatchInterval: 10 * time.Second,
		Epoch:            5 * time.Minute,
		HotFiles:         0.2,
		WarmFiles:        0.3,
		HotShare:         0.6,
		WarmShare:        0.3,
		ZipfS:            1.5,
		DiurnalAmplitude: 0.5,
		DiurnalPeriod:    time.Hour,
		SizesMB:          []int64{1, 4},
		Streams:          4,
		Failover:         true,
		FaultIntensity:   1,
		Policy:           PolicyPopularity,
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Topology.Regions = 1 },
		func(s *Spec) { s.Files = 2 },
		func(s *Spec) { s.Replicas = 0 },
		func(s *Spec) { s.RatePerMinute = 0 },
		func(s *Spec) { s.Horizon = 0 },
		func(s *Spec) { s.Epoch = 7 * time.Second }, // not a dispatch multiple
		func(s *Spec) { s.HotFiles = 0.8; s.WarmFiles = 0.3 },
		func(s *Spec) { s.HotShare = 0 },
		func(s *Spec) { s.ZipfS = 1 },
		func(s *Spec) { s.DiurnalAmplitude = 1 },
		func(s *Spec) { s.SizesMB = nil },
		func(s *Spec) { s.SizesMB = []int64{0} },
		func(s *Spec) { s.FaultIntensity = -1 },
		func(s *Spec) { s.Policy = PolicyKind(9) },
		func(s *Spec) { s.MinReplicas = 3; s.MaxReplicas = 2 },
		func(s *Spec) { s.Replicas = 5 }, // > regions
	}
	for i, mutate := range bad {
		s := testSpec()
		mutate(&s)
		if _, err := s.withDefaults(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
	if _, err := testSpec().withDefaults(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
}

func TestClassBounds(t *testing.T) {
	s := testSpec()
	hot, warm := s.classBounds()
	if hot < 1 || warm <= hot || warm >= s.Files {
		t.Fatalf("class bounds (%d,%d) degenerate for %d files", hot, warm, s.Files)
	}
	s.Files = 3
	hot, warm = s.classBounds()
	if hot != 1 || warm != 2 {
		t.Fatalf("3-file bounds = (%d,%d), want (1,2)", hot, warm)
	}
}

// TestRunPinnedReport pins the full-featured spec's Report run over run
// and against a literal captured at commit 323d685: any change to draw
// order, event order or float arithmetic in the world, the engine, the
// allocator or the driver shows up here.
func TestRunPinnedReport(t *testing.T) {
	want := &Report{
		Requests: 3564, Completed: 2606, Failed: 100, LocalHits: 858, Attempts: 2972,
		P50: 0.16694185969065212, P95: 4.437094042102034, P99: 7.768043531562235,
		GoodputMbps: 29.16888888888889, SiteSkew: 1.7068303914044514,
		Replications: 6, Removals: 7, Hot: 3, Warm: 3, Cold: 6,
		Selections: 3570, HostsScanned: 10660,
	}
	for run := 0; run < 2; run++ {
		got, err := Run(testSpec(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: pinned report moved:\n got %+v\nwant %+v", run, got, want)
		}
	}
}

// TestRunReportSanity checks the reduction's internal consistency on the
// full-featured spec.
func TestRunReportSanity(t *testing.T) {
	r, err := Run(testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed+r.Failed+r.LocalHits != r.Requests {
		t.Fatalf("accounting broken: %d + %d + %d != %d", r.Completed, r.Failed, r.LocalHits, r.Requests)
	}
	// ~30/min/region * 4 regions * 30 min = ~3600 before diurnal wobble.
	if r.Requests < 2500 || r.Requests > 5000 {
		t.Fatalf("requests = %d, want ~3600", r.Requests)
	}
	if !(r.P50 > 0 && r.P50 <= r.P95 && r.P95 <= r.P99) {
		t.Fatalf("quantiles out of order: p50=%v p95=%v p99=%v", r.P50, r.P95, r.P99)
	}
	if r.GoodputMbps <= 0 {
		t.Fatalf("goodput = %v", r.GoodputMbps)
	}
	if r.SiteSkew < 1 {
		t.Fatalf("site skew = %v, want >= 1", r.SiteSkew)
	}
	if r.Attempts < r.Completed+r.Failed {
		t.Fatalf("failover attempts %d below transfer count %d", r.Attempts, r.Completed+r.Failed)
	}
	if r.Selections == 0 || r.HostsScanned == 0 {
		t.Fatalf("hierarchy idle: %+v", r)
	}
	// Run itself refuses to report when the identities do not hold.
	for _, c := range []collector{
		{submitted: 3, completed: 1, failed: 1},               // a request with no outcome
		{submitted: 2, completed: 1, failed: 1, inflight: -1}, // a double completion
	} {
		if err := c.balanced(); err == nil {
			t.Errorf("collector %+v passed the accounting check", c)
		}
	}
}

// TestPopularityLoopActs: with hot traffic concentrated on few files the
// control loop must replicate something, and the catalog churn must not
// break any later selection (Run would fail).
func TestPopularityLoopActs(t *testing.T) {
	spec := testSpec()
	spec.FaultIntensity = 0
	r, err := Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Replications == 0 {
		t.Fatalf("popularity loop never replicated: %+v", r)
	}
	if r.Hot+r.Warm+r.Cold == 0 {
		t.Fatalf("no final epoch classification: %+v", r)
	}
}

// TestPolicyNoneIsStatic: the baseline never places or removes replicas.
func TestPolicyNoneIsStatic(t *testing.T) {
	spec := testSpec()
	spec.Policy = PolicyNone
	spec.Failover = false
	spec.FaultIntensity = 0
	r, err := Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Replications != 0 || r.Removals != 0 {
		t.Fatalf("baseline mutated the catalog: %+v", r)
	}
	if r.Failed != 0 {
		t.Fatalf("fault-free legacy run failed %d transfers", r.Failed)
	}
	if r.Attempts != 0 {
		t.Fatalf("legacy path logged %d failover attempts", r.Attempts)
	}
}

// ghostHost parses as a region-0 host but is not in any generated
// testbed, so simxfer.Submit rejects a transfer that names it.
const ghostHost = "r00s00c0h99"

// testWorld builds testSpec's world without running it, so a test can
// damage it first.
func testWorld(t *testing.T) *world {
	t.Helper()
	spec, err := testSpec().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	w, err := buildWorld(spec, simulation.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSubmitFailureIsAnError: a client request the transferrer rejects
// inside its scheduled callback must end the run with an error, not a
// panic and not a hang in the settle loop.
func TestSubmitFailureIsAnError(t *testing.T) {
	w := testWorld(t)
	w.Top.HostsByRegion[w.Top.Regions[0]] = []string{ghostHost}
	if _, err := w.run(); err == nil || !strings.Contains(err.Error(), "traffic: submit") {
		t.Fatalf("run with an unknown destination returned %v, want a submit error", err)
	}
}

// TestReplicaCopyFailureIsAnError: a replication copy that cannot start
// (here: its landing host is not in the testbed) ends the run the same
// way.
func TestReplicaCopyFailureIsAnError(t *testing.T) {
	w := testWorld(t)
	if err := w.republish(0); err != nil {
		t.Fatal(err)
	}
	// Queue a copy of d0 into a region that does not hold it, landing on
	// the ghost; the copy's Submit runs inside run's first engine advance.
	held, err := w.Catalog.RegionsWith("lfn:d0")
	if err != nil {
		t.Fatal(err)
	}
	region := ""
	for _, r := range w.Top.Regions {
		if !slices.Contains(held, r) {
			region = r
			break
		}
	}
	hosts := w.Top.HostsByRegion[region]
	w.Top.HostsByRegion[region] = []string{ghostHost}
	exec := newGridExecutor(w, newCollector(nil))
	if err := exec.AddReplica("lfn:d0", region, func(error) {}); err != nil {
		t.Fatal(err)
	}
	w.Top.HostsByRegion[region] = hosts
	if _, err := w.run(); err == nil || !strings.Contains(err.Error(), "replica copy") {
		t.Fatalf("run with a copy that cannot start returned %v, want a replica-copy error", err)
	}
}
