package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/gridstate"
	"github.com/hpclab/datagrid/internal/info"
	"github.com/hpclab/datagrid/internal/nws"
	"github.com/hpclab/datagrid/internal/replica"
	"github.com/hpclab/datagrid/internal/simulation"
)

func TestWeightsValidate(t *testing.T) {
	if err := PaperWeights.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Weights{-0.1, 0.5, 0.6}).Validate(); err == nil {
		t.Fatal("negative weight should be rejected")
	}
	if err := (Weights{}).Validate(); err == nil {
		t.Fatal("all-zero weights should be rejected")
	}
}

func report(bw, cpu, io float64) gridstate.HostPerf {
	return gridstate.HostPerf{BandwidthPercent: bw, CPUIdlePercent: cpu, IOIdlePercent: io}
}

func TestScoreFormula(t *testing.T) {
	// The exact formula (1) with the paper's 80/10/10 weights.
	r := report(50, 80, 90)
	got := Score(&r, PaperWeights)
	want := 50*0.8 + 80*0.1 + 90*0.1
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Score = %v, want %v", got, want)
	}
}

func TestScoreWeightSensitivity(t *testing.T) {
	fastNet := report(90, 10, 10)
	idleCPU := report(10, 90, 90)
	if Score(&fastNet, PaperWeights) <= Score(&idleCPU, PaperWeights) {
		t.Fatal("with 80% bandwidth weight, the fast-network host must win")
	}
	cpuHeavy := Weights{Bandwidth: 0.1, CPU: 0.8, IO: 0.1}
	if Score(&fastNet, cpuHeavy) >= Score(&idleCPU, cpuHeavy) {
		t.Fatal("with CPU-heavy weights, the idle host must win")
	}
}

func cands(scores ...float64) []Candidate {
	out := make([]Candidate, len(scores))
	for i, s := range scores {
		out[i].Score = s
		r := report(s, s, s)
		out[i].Report = &r
		out[i].Location = replica.Location{Host: string(rune('a' + i)), Path: "/f"}
	}
	return out
}

func TestCostModelSelector(t *testing.T) {
	s := CostModelSelector{Weights: PaperWeights}
	i, err := s.Select(cands(10, 90, 50))
	if err != nil || i != 1 {
		t.Fatalf("Select = %d, %v; want 1", i, err)
	}
	if _, err := s.Select(nil); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("empty err = %v", err)
	}
	bad := CostModelSelector{}
	if _, err := bad.Select(cands(1)); err == nil {
		t.Fatal("zero weights should fail selection")
	}
	if s.Name() != "cost-model" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestRandomSelector(t *testing.T) {
	s := NewRandomSelector(1)
	counts := map[int]int{}
	for i := 0; i < 300; i++ {
		k, err := s.Select(cands(1, 2, 3))
		if err != nil {
			t.Fatal(err)
		}
		counts[k]++
	}
	for i := 0; i < 3; i++ {
		if counts[i] == 0 {
			t.Fatalf("random selector never picked %d: %v", i, counts)
		}
	}
	if _, err := s.Select(nil); !errors.Is(err, ErrNoCandidates) {
		t.Fatal("empty should error")
	}
}

func TestRoundRobinSelector(t *testing.T) {
	s := &RoundRobinSelector{}
	var got []int
	for i := 0; i < 6; i++ {
		k, err := s.Select(cands(1, 2, 3))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, k)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin = %v, want %v", got, want)
		}
	}
	if _, err := s.Select(nil); !errors.Is(err, ErrNoCandidates) {
		t.Fatal("empty should error")
	}
}

func TestBandwidthOnlySelector(t *testing.T) {
	s := BandwidthOnlySelector{}
	cs := []Candidate{
		{Report: &gridstate.HostPerf{BandwidthPercent: 20, CPUIdlePercent: 99, IOIdlePercent: 99}},
		{Report: &gridstate.HostPerf{BandwidthPercent: 80, CPUIdlePercent: 1, IOIdlePercent: 1}},
	}
	i, err := s.Select(cs)
	if err != nil || i != 1 {
		t.Fatalf("Select = %d, %v; want bandwidth winner", i, err)
	}
	if _, err := s.Select(nil); !errors.Is(err, ErrNoCandidates) {
		t.Fatal("empty should error")
	}
}

// Property: CostModelSelector always returns the argmax of Score.
func TestPropertySelectorPicksArgmax(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		cs := make([]Candidate, len(raw))
		best, bestVal := 0, -1.0
		for i, v := range raw {
			score := float64(v % 10000)
			cs[i].Score = score
			if score > bestVal {
				best, bestVal = i, score
			}
		}
		got, err := (CostModelSelector{Weights: PaperWeights}).Select(cs)
		return err == nil && cs[got].Score == cs[best].Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- integration: full pipeline on the paper testbed ---

type pipeline struct {
	eng     *simulation.Engine
	tb      *cluster.Testbed
	dep     *info.Deployment
	catalog *replica.Catalog
	sel     *SelectionServer
}

// buildPipeline stands up testbed + monitors + catalog with file-a
// replicated on alpha4, hit0 and lz02 (the Table 1 scenario, user on
// alpha1).
func buildPipeline(t *testing.T) *pipeline {
	t.Helper()
	eng := simulation.NewEngine()
	tb, err := cluster.NewPaperTestbed(eng)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := info.Deploy(tb, info.DeploymentConfig{
		Local:   "alpha1",
		Remotes: []string{"alpha4", "hit0", "lz02"},
	})
	if err != nil {
		t.Fatal(err)
	}
	catalog := replica.NewCatalog()
	if err := catalog.CreateLogical(replica.LogicalFile{Name: "file-a", SizeBytes: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"alpha4", "hit0", "lz02"} {
		if err := catalog.Register("file-a", replica.Location{Host: h, Path: "/data/file-a"}); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := NewSelectionServer(catalog, dep.Server.Publisher(), PaperWeights, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &pipeline{eng: eng, tb: tb, dep: dep, catalog: catalog, sel: sel}
}

func TestSelectionServerValidation(t *testing.T) {
	p := buildPipeline(t)
	if _, err := NewSelectionServer(nil, p.dep.Server.Publisher(), PaperWeights, nil); err == nil {
		t.Fatal("nil catalog should be rejected")
	}
	if _, err := NewSelectionServer(p.catalog, nil, PaperWeights, nil); err == nil {
		t.Fatal("nil snapshot source should be rejected")
	}
	if _, err := NewSelectionServer(p.catalog, p.dep.Server.Publisher(), Weights{}, nil); err == nil {
		t.Fatal("zero weights should be rejected")
	}
	if p.sel.weights != PaperWeights {
		t.Fatalf("weights = %+v", p.sel.weights)
	}
}

func TestRankPrefersLocalSiteReplica(t *testing.T) {
	p := buildPipeline(t)
	// Make the remote candidates visibly worse.
	for host, load := range map[string]float64{"hit0": 0.5, "lz02": 0.3} {
		h, _ := p.tb.Host(host)
		if err := h.SetBaseCPULoad(load); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.eng.RunUntil(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	ranked, err := p.sel.Rank("file-a", p.eng.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("ranked %d candidates, want 3", len(ranked))
	}
	// alpha4 shares the 1 Gb/s THU LAN with alpha1: it must rank first,
	// and the 30 Mb/s Li-Zen host must rank last — the Table 1 ordering.
	if ranked[0].Location.Host != "alpha4" {
		t.Fatalf("best = %s, want alpha4 (ranked: %v, %v, %v)",
			ranked[0].Location.Host, ranked[0], ranked[1], ranked[2])
	}
	if ranked[2].Location.Host != "lz02" {
		t.Fatalf("worst = %s, want lz02", ranked[2].Location.Host)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score {
			t.Fatal("Rank output not sorted descending")
		}
	}
}

func TestRankSkipsUnmonitoredReplica(t *testing.T) {
	p := buildPipeline(t)
	// lz04 has a replica but no sensors.
	if err := p.catalog.Register("file-a", replica.Location{Host: "lz04", Path: "/data/file-a"}); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	ranked, err := p.sel.Rank("file-a", p.eng.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("ranked %d, want 3 (unmonitored lz04 skipped)", len(ranked))
	}
}

func TestRankNoUsableReplica(t *testing.T) {
	p := buildPipeline(t)
	if err := p.catalog.CreateLogical(replica.LogicalFile{Name: "dark", SizeBytes: 10}); err != nil {
		t.Fatal(err)
	}
	if err := p.catalog.Register("dark", replica.Location{Host: "lz04", Path: "/x"}); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := p.sel.Rank("dark", p.eng.Now()); !errors.Is(err, ErrNoUsableReplica) {
		t.Fatalf("err = %v, want ErrNoUsableReplica", err)
	}
	if _, err := p.sel.Rank("ghost", p.eng.Now()); !errors.Is(err, replica.ErrUnknownLogical) {
		t.Fatalf("err = %v, want ErrUnknownLogical", err)
	}
}

func TestRankHosts(t *testing.T) {
	p := buildPipeline(t)
	// lz04 holds a copy but has no sensors: it must rank after every
	// monitored host instead of being dropped — a failover engine still
	// wants to try it last.
	if err := p.catalog.Register("file-a", replica.Location{Host: "lz04", Path: "/data/file-a"}); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.RunUntil(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	hosts, err := p.sel.RankHosts("file-a", p.eng.Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 4 {
		t.Fatalf("RankHosts returned %v, want 4 hosts", hosts)
	}
	if hosts[0] != "alpha4" {
		t.Fatalf("best = %q, want alpha4 (got %v)", hosts[0], hosts)
	}
	if hosts[3] != "lz04" {
		t.Fatalf("unmonitored lz04 must rank last, got %v", hosts)
	}
	// The alive filter drops candidates entirely.
	hosts, err = p.sel.RankHosts("file-a", p.eng.Now(), func(h string) bool { return h != "alpha4" })
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hosts {
		if h == "alpha4" {
			t.Fatalf("filtered host alpha4 still present: %v", hosts)
		}
	}
	if len(hosts) != 3 {
		t.Fatalf("filtered RankHosts = %v, want 3 hosts", hosts)
	}
	if _, err := p.sel.RankHosts("ghost", p.eng.Now(), nil); !errors.Is(err, replica.ErrUnknownLogical) {
		t.Fatalf("err = %v, want ErrUnknownLogical", err)
	}
}

func TestSelectBest(t *testing.T) {
	p := buildPipeline(t)
	if err := p.eng.RunUntil(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	best, err := p.sel.SelectBest("file-a", p.eng.Now())
	if err != nil {
		t.Fatal(err)
	}
	if best.Location.Host != "alpha4" {
		t.Fatalf("best = %s, want alpha4", best.Location.Host)
	}
	if best.Score <= 0 || best.Score > 100 {
		t.Fatalf("score = %v out of (0,100]", best.Score)
	}
}

// recordingTransfer is a replica.Transfer that completes instantly and
// remembers its invocations.
type recordingTransfer struct {
	calls []string
	fail  error
}

func (r *recordingTransfer) fn(srcHost, srcPath, dstHost, dstPath string, bytes int64, done func(error)) error {
	r.calls = append(r.calls, srcHost+"->"+dstHost+":"+dstPath)
	done(r.fail)
	return nil
}

func TestApplicationFetchRemote(t *testing.T) {
	p := buildPipeline(t)
	if err := p.eng.RunUntil(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	tr := &recordingTransfer{}
	app, err := NewApplication("alpha1", p.sel, tr.fn, p.eng)
	if err != nil {
		t.Fatal(err)
	}
	var got FetchResult
	var gotErr error
	if err := app.Fetch("file-a", func(r FetchResult, err error) { got, gotErr = r, err }); err != nil {
		t.Fatal(err)
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if got.LocalHit {
		t.Fatal("fetch should not be a local hit")
	}
	if got.Chosen.Location.Host != "alpha4" {
		t.Fatalf("chosen = %s", got.Chosen.Location.Host)
	}
	if len(tr.calls) != 1 || tr.calls[0] != "alpha4->alpha1:/cache/file-a" {
		t.Fatalf("transfer calls = %v", tr.calls)
	}
}

func TestApplicationLocalHit(t *testing.T) {
	p := buildPipeline(t)
	if err := p.catalog.Register("file-a", replica.Location{Host: "alpha1", Path: "/data/file-a"}); err != nil {
		t.Fatal(err)
	}
	tr := &recordingTransfer{}
	app, err := NewApplication("alpha1", p.sel, tr.fn, p.eng)
	if err != nil {
		t.Fatal(err)
	}
	var got FetchResult
	if err := app.Fetch("file-a", func(r FetchResult, err error) { got = r }); err != nil {
		t.Fatal(err)
	}
	if !got.LocalHit {
		t.Fatal("should be a local hit")
	}
	if len(tr.calls) != 0 {
		t.Fatalf("local hit must not transfer: %v", tr.calls)
	}
}

func TestApplicationTransferFailure(t *testing.T) {
	p := buildPipeline(t)
	if err := p.eng.RunUntil(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	tr := &recordingTransfer{fail: errors.New("broken pipe")}
	app, err := NewApplication("alpha1", p.sel, tr.fn, p.eng)
	if err != nil {
		t.Fatal(err)
	}
	var gotErr error
	if err := app.Fetch("file-a", func(_ FetchResult, err error) { gotErr = err }); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil {
		t.Fatal("transfer failure should surface")
	}
}

func TestApplicationValidation(t *testing.T) {
	p := buildPipeline(t)
	tr := &recordingTransfer{}
	if _, err := NewApplication("", p.sel, tr.fn, p.eng); err == nil {
		t.Fatal("missing local should be rejected")
	}
	if _, err := NewApplication("a", nil, tr.fn, p.eng); err == nil {
		t.Fatal("nil selection should be rejected")
	}
	if _, err := NewApplication("a", p.sel, nil, p.eng); err == nil {
		t.Fatal("nil transfer should be rejected")
	}
	if _, err := NewApplication("a", p.sel, tr.fn, nil); err == nil {
		t.Fatal("nil clock should be rejected")
	}
	app, err := NewApplication("alpha1", p.sel, tr.fn, p.eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Fetch("file-a", nil); err == nil {
		t.Fatal("nil callback should be rejected")
	}
	if err := app.Fetch("ghost", func(FetchResult, error) {}); err == nil {
		t.Fatal("unknown logical should be rejected")
	}
}

func TestLatencyAwareSelector(t *testing.T) {
	near := Candidate{Report: &gridstate.HostPerf{BandwidthPercent: 70, CPUIdlePercent: 50, IOIdlePercent: 50, LatencyMs: 1}}
	far := Candidate{Report: &gridstate.HostPerf{BandwidthPercent: 75, CPUIdlePercent: 50, IOIdlePercent: 50, LatencyMs: 40}}
	// Plain cost model prefers the marginally-faster far host...
	plain := CostModelSelector{Weights: PaperWeights}
	cands := []Candidate{near, far}
	for i := range cands {
		cands[i].Score = Score(cands[i].Report, PaperWeights)
	}
	i, err := plain.Select(cands)
	if err != nil || i != 1 {
		t.Fatalf("plain Select = %d, %v; want far host", i, err)
	}
	// ...the latency-aware variant flips to the near one.
	aware := LatencyAwareSelector{Weights: PaperWeights}
	i, err = aware.Select(cands)
	if err != nil || i != 0 {
		t.Fatalf("latency-aware Select = %d, %v; want near host", i, err)
	}
	if aware.Name() != "cost-model+latency" {
		t.Fatalf("name = %q", aware.Name())
	}
	if _, err := aware.Select(nil); !errors.Is(err, ErrNoCandidates) {
		t.Fatal("empty should error")
	}
	if _, err := (LatencyAwareSelector{}).Select(cands); err == nil {
		t.Fatal("zero weights should be rejected")
	}
}

func TestReportCarriesLatency(t *testing.T) {
	p := buildPipeline(t)
	// The deployment runs no latency sensors; install lz02's beside it.
	if _, err := nws.NewLatencySensor(p.eng, p.dep.NWS, p.tb.Network(), "lz02", "alpha1", 13); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	rep, err := p.dep.Server.Snapshot(p.eng.Now()).Lookup("lz02")
	if err != nil {
		t.Fatal(err)
	}
	// lz02 -> alpha1 RTT is ~16 ms plus jitter; with a latency sensor
	// running, the report must carry a sane forecast.
	if rep.LatencyMs < 15 || rep.LatencyMs > 20 {
		t.Fatalf("LatencyMs = %v, want ~16-18", rep.LatencyMs)
	}
}

func TestRankRoutesAroundDeadHost(t *testing.T) {
	p := buildPipeline(t)
	if err := p.eng.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Kill the Li-Zen uplink; its probes stall and the series goes stale.
	lz := cluster.SwitchNode(cluster.SiteLiZen)
	thu := cluster.SwitchNode(cluster.SiteTHU)
	if err := p.tb.Network().SetLinkDown(lz, thu, true); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.RunUntil(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	ranked, err := p.sel.Rank("file-a", p.eng.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 2 {
		t.Fatalf("ranked %d candidates, want 2 (lz02 unreachable)", len(ranked))
	}
	for _, c := range ranked {
		if c.Location.Host == "lz02" {
			t.Fatal("selection must not offer the unreachable replica")
		}
	}
	best, err := p.sel.SelectBest("file-a", p.eng.Now())
	if err != nil || best.Location.Host == "lz02" {
		t.Fatalf("SelectBest = %v, %v", best.Location.Host, err)
	}
}

// Property: Score is monotone non-decreasing in every factor.
func TestPropertyScoreMonotone(t *testing.T) {
	f := func(bw, cpu, io uint8, dbw, dcpu, dio uint8) bool {
		base := report(float64(bw%101), float64(cpu%101), float64(io%101))
		better := report(
			math.Min(100, base.BandwidthPercent+float64(dbw%50)),
			math.Min(100, base.CPUIdlePercent+float64(dcpu%50)),
			math.Min(100, base.IOIdlePercent+float64(dio%50)),
		)
		return Score(&better, PaperWeights) >= Score(&base, PaperWeights)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDiscoveryByCharacteristics walks the exact §4.3 flow: the user
// "specifies the characteristics of the desired data", a scan of the
// catalog's records resolves them to a logical file, and the pipeline
// fetches the best replica of it.
func TestDiscoveryByCharacteristics(t *testing.T) {
	p := buildPipeline(t)
	// file-a was registered without attributes in buildPipeline; add a
	// second file carrying queryable metadata.
	if err := p.catalog.CreateLogical(replica.LogicalFile{
		Name:      "nr-2005-07",
		SizeBytes: 512 << 20,
		Attributes: map[string]string{
			"type":   "biological-database",
			"format": "fasta",
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.catalog.Register("nr-2005-07", replica.Location{Host: "hit0", Path: "/db/nr"}); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.RunUntil(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, name := range p.catalog.LogicalNames() {
		f, err := p.catalog.Logical(name)
		if err != nil {
			t.Fatal(err)
		}
		if f.Attributes["type"] == "biological-database" && f.Attributes["format"] == "fasta" {
			names = append(names, name)
		}
	}
	if len(names) != 1 || names[0] != "nr-2005-07" {
		t.Fatalf("discovery = %v", names)
	}
	tr := &recordingTransfer{}
	app, err := NewApplication("alpha1", p.sel, tr.fn, p.eng)
	if err != nil {
		t.Fatal(err)
	}
	var got FetchResult
	if err := app.Fetch(names[0], func(r FetchResult, err error) {
		if err != nil {
			t.Errorf("fetch: %v", err)
		}
		got = r
	}); err != nil {
		t.Fatal(err)
	}
	if got.Chosen.Location.Host != "hit0" {
		t.Fatalf("discovered file fetched from %s", got.Chosen.Location.Host)
	}
}
