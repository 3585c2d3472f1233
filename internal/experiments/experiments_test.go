package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/simxfer"
	"github.com/hpclab/datagrid/internal/workload"
)

const seed = 42

func TestEnvDeterministic(t *testing.T) {
	run := func() float64 {
		env, err := NewEnv(seed, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.MeasureAt(Warmup, "alpha1", "gridhit3", 64_000_000, simxfer.Options{Protocol: simxfer.ProtoFTP})
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration().Seconds()
	}
	if run() != run() {
		t.Fatal("same seed produced different measurements")
	}
}

// TestMeasureAtEndsAtTheAnswer pins the whole event count of two
// measurement worlds at seed 42: each stops at its transfer's completing
// event. When settle still ran every world to the next 10-minute slice
// boundary, the Fig. 3 world (FTP, 256 MB) ran to 13:00 and fired 9,367
// events, and the monitored Table 1 world (hit0, 1024 MB) ran to 14:00
// and fired 15,729, its NWS free-memory gauges included; before the
// default deployment dropped its latency sensors (one per remote, read
// by no result), it fired 6,745 here. Before host load came to advance
// when read instead of on a 2 s ticker per host, they fired 2,629 and
// 6,622; before a link's background walk came to step only while a flow
// crosses the link instead of on a 1 s ticker per WAN direction, 1,321
// and 4,210. A slice tail, or a new monitor or ticker on the paper
// testbed that no result reads, fails here.
func TestMeasureAtEndsAtTheAnswer(t *testing.T) {
	for _, c := range []struct {
		name     string
		monitor  bool
		at       time.Duration
		src, dst string
		bytes    int64
		o        simxfer.Options
		fired    uint64
	}{
		{"fig3/256MB/ftp", false, Warmup, "alpha1", "gridhit3", 256 * workload.MB, simxfer.Options{Protocol: simxfer.ProtoFTP}, 46},
		{"table1/hit0", true, Warmup + time.Minute, "hit0", "alpha1", 1024 * workload.MB, simxfer.GridFTPOptions(0), 2106},
	} {
		env, err := NewEnv(seed, c.monitor)
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.MeasureAt(c.at, c.src, c.dst, c.bytes, c.o)
		if err != nil {
			t.Fatal(err)
		}
		if end := c.at + res.Duration(); env.Engine.Now() != end {
			t.Fatalf("%s: clock = %v, want the transfer's end %v", c.name, env.Engine.Now(), end)
		}
		if got := env.Engine.Fired(); got != c.fired {
			t.Fatalf("%s: world fired %d events, want %d", c.name, got, c.fired)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	rows, rendered, err := Figure3(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for i, r := range rows {
		// FTP and GridFTP are close: GridFTP pays only session setup.
		if r.GridFTPSeconds <= r.FTPSeconds {
			t.Fatalf("size %d: GridFTP (%v) should pay setup overhead vs FTP (%v)",
				r.SizeMB, r.GridFTPSeconds, r.FTPSeconds)
		}
		if gap := r.GridFTPSeconds - r.FTPSeconds; gap > r.FTPSeconds*0.05 {
			t.Fatalf("size %d: protocols should be close, gap %.2fs of %.2fs", r.SizeMB, gap, r.FTPSeconds)
		}
		// Transfer time grows with size, roughly linearly.
		if i > 0 && rows[i].FTPSeconds <= rows[i-1].FTPSeconds {
			t.Fatalf("transfer time not increasing: %+v", rows)
		}
	}
	// Doubling the size roughly doubles the time (within 15%).
	ratio := rows[3].FTPSeconds / rows[2].FTPSeconds
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("2048/1024 ratio = %.2f, want ~2", ratio)
	}
	for _, want := range []string{"Figure 3", "FTP", "GridFTP", "2048"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("rendered figure missing %q:\n%s", want, rendered)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	points, rendered, err := Figure4(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 24 {
		t.Fatalf("points = %d, want 6 stream counts x 4 sizes", len(points))
	}
	at := func(streams int, size int64) float64 {
		for _, p := range points {
			if p.Streams == streams && p.SizeMB == size {
				return p.Seconds
			}
		}
		t.Fatalf("missing point %d streams, %d MB", streams, size)
		return 0
	}
	for _, size := range []int64{256, 512, 1024, 2048} {
		// One MODE E stream is marginally slower than stream mode
		// (framing), and more streams win big on the lossy Li-Zen path.
		if at(1, size) <= at(0, size) {
			t.Fatalf("size %d: MODE E 1-stream (%v) should trail stream mode (%v)",
				size, at(1, size), at(0, size))
		}
		if !(at(2, size) < at(1, size) && at(4, size) < at(1, size)) {
			t.Fatalf("size %d: parallel streams should beat one stream", size)
		}
		if at(16, size) > at(4, size)*1.05 {
			t.Fatalf("size %d: 16 streams (%v) should not be slower than 4 (%v)",
				size, at(16, size), at(4, size))
		}
		// Parallelism gain is substantial: at least 25% faster with 4.
		if at(4, size) > at(1, size)*0.75 {
			t.Fatalf("size %d: 4-stream gain too small: %v vs %v", size, at(4, size), at(1, size))
		}
	}
	// Diminishing returns: 4 -> 16 gains far less than 1 -> 4.
	if gainLate := at(4, 1024) - at(16, 1024); gainLate > (at(1, 1024)-at(4, 1024))/2 {
		t.Fatalf("no diminishing returns: late gain %v", gainLate)
	}
	if !strings.Contains(rendered, "Figure 4") || !strings.Contains(rendered, "16 TCP Stream") {
		t.Fatalf("rendered figure wrong:\n%s", rendered)
	}
}

func TestTable1RankingAgreement(t *testing.T) {
	res, rendered, err := Table1(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 4 {
		t.Fatalf("candidates = %d, want 4", len(res.Candidates))
	}
	if !res.OrderingsAgree {
		t.Fatalf("cost-model ranking disagrees with measured times:\n%s", rendered)
	}
	if res.Spearman > -0.99 {
		t.Fatalf("Spearman = %v, want ~-1", res.Spearman)
	}
	byHost := map[string]Table1Candidate{}
	for _, c := range res.Candidates {
		byHost[c.Host] = c
	}
	// The local host wins; the local-site replica beats the remote ones;
	// the 30 Mb/s Li-Zen host loses.
	if !(byHost["alpha1"].Score >= byHost["alpha4"].Score) {
		t.Fatalf("alpha1 should score highest: %+v", res.Candidates)
	}
	if !(byHost["alpha4"].Score > byHost["hit0"].Score && byHost["hit0"].Score > byHost["lz02"].Score) {
		t.Fatalf("expected alpha4 > hit0 > lz02: %+v", res.Candidates)
	}
	if !(byHost["lz02"].TransferSeconds > byHost["hit0"].TransferSeconds) {
		t.Fatalf("lz02 should be slowest remote: %+v", res.Candidates)
	}
	for _, c := range res.Candidates {
		if c.BWPercent < 0 || c.BWPercent > 100 || c.CPUIdle < 0 || c.CPUIdle > 100 || c.IOIdle < 0 || c.IOIdle > 100 {
			t.Fatalf("factor out of range: %+v", c)
		}
	}
	if !strings.Contains(rendered, "Table 1") || !strings.Contains(rendered, "ranking agreement: true") {
		t.Fatalf("rendered table wrong:\n%s", rendered)
	}
}

// TestDecisionsMatchDirectReads: every cell of the decision oracle is what
// a direct read gives — the report a world run to that instant publishes,
// alpha1's local disk read in that world, or a remote host's fresh-world
// transfer started then — at the cell's own instant and host.
func TestDecisionsMatchDirectReads(t *testing.T) {
	instants := []time.Duration{Warmup, Warmup + 2*time.Minute}
	hosts := []string{"alpha1", "alpha4", "lz02"}
	const bytes = 256 * workload.MB
	reports, seconds, err := decisions(seed, 0, "decisions test", instants, hosts, bytes)
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range instants {
		env, err := NewEnv(seed, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Engine.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		snap := env.Deploy.Server.Publisher().Snapshot(at)
		for j, h := range hosts {
			rep, err := snap.Lookup(h)
			if err != nil {
				t.Fatal(err)
			}
			if reports[i][j] != rep {
				t.Errorf("%v %s: report %+v, direct %+v", at, h, reports[i][j], rep)
			}
			var want float64
			if h == "alpha1" {
				th, err := env.Testbed.Host(h)
				if err != nil {
					t.Fatal(err)
				}
				want = float64(bytes) * 8 / th.EffectiveDiskReadBps()
			} else if want, err = measureFresh(seed, true, at, h, "alpha1", bytes, simxfer.GridFTPOptions(0)); err != nil {
				t.Fatal(err)
			}
			if seconds[i][j] != want {
				t.Errorf("%v %s: %v s, direct %v s", at, h, seconds[i][j], want)
			}
		}
	}
}

func TestCostSeries(t *testing.T) {
	points, err := CostSeries(seed, 60*time.Second, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// 7 sample times x 3 candidates.
	if len(points) != 21 {
		t.Fatalf("points = %d, want 21", len(points))
	}
	hosts := map[string]bool{}
	for i, p := range points {
		if p.Score <= 0 || p.Score > 100 {
			t.Fatalf("score %v out of range", p.Score)
		}
		hosts[p.Host] = true
		// One view per sampling instant: the epoch is shared within a row
		// and strictly newer than the previous row's, so a view held
		// across instants (stale scores) fails here.
		if i == 0 {
			continue
		}
		prev := points[i-1]
		if p.At == prev.At && p.Epoch != prev.Epoch {
			t.Fatalf("epoch %d and %d within the row at %v", prev.Epoch, p.Epoch, p.At)
		}
		if p.At != prev.At && p.Epoch <= prev.Epoch {
			t.Fatalf("epoch %d at %v does not advance past %d at %v", p.Epoch, p.At, prev.Epoch, prev.At)
		}
	}
	if len(hosts) != 3 {
		t.Fatalf("hosts sampled = %v", hosts)
	}
	if _, err := CostSeries(seed, 0, time.Second); err == nil {
		t.Fatal("zero span should be rejected")
	}
	if _, err := CostSeries(seed, time.Second, 0); err == nil {
		t.Fatal("zero period should be rejected")
	}
}

func TestAblationSelectors(t *testing.T) {
	res, rendered, err := AblationSelectors(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("policies = %d, want 4", len(res))
	}
	byName := map[string]float64{}
	for _, r := range res {
		if r.Fetches == 0 {
			t.Fatalf("policy %s made no fetches", r.Name)
		}
		byName[r.Name] = r.MeanSeconds
	}
	// The informed policies must clearly beat the uninformed ones.
	if byName["cost-model"] >= byName["round-robin"] || byName["cost-model"] >= byName["random"] {
		t.Fatalf("cost model should win:\n%s", rendered)
	}
	if byName["bandwidth-only"] >= byName["round-robin"] {
		t.Fatalf("bandwidth-only should beat round-robin:\n%s", rendered)
	}
}

func TestAblationWeights(t *testing.T) {
	res, rendered, err := AblationWeights(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("weight vectors = %d, want 5", len(res))
	}
	var paper, noBW WeightResult
	for _, r := range res {
		if r.Weights == core.PaperWeights {
			paper = r
		}
		if r.Weights.Bandwidth == 0 {
			noBW = r
		}
		if r.MeanRegretSeconds < 0 {
			t.Fatalf("negative regret: %+v", r)
		}
	}
	// The paper's bandwidth-dominant weights must have (near-)zero regret;
	// ignoring bandwidth entirely must hurt badly.
	if paper.MeanRegretSeconds > 5 {
		t.Fatalf("paper weights regret = %v:\n%s", paper.MeanRegretSeconds, rendered)
	}
	if noBW.MeanRegretSeconds < paper.MeanRegretSeconds+30 {
		t.Fatalf("bandwidth-blind weights should suffer:\n%s", rendered)
	}
}

func TestAblationForecasters(t *testing.T) {
	res, rendered, err := AblationForecasters(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 15 {
		t.Fatalf("forecasters = %d", len(res))
	}
	var bank, last, best float64
	best = -1
	for _, r := range res {
		if r.MSE < 0 {
			t.Fatalf("negative MSE: %+v", r)
		}
		switch r.Name {
		case "nws-bank(adaptive)":
			bank = r.MSE
		case "last":
			last = r.MSE
		}
		if best < 0 || r.MSE < best {
			best = r.MSE
		}
	}
	if bank == 0 || last == 0 {
		t.Fatalf("missing bank or last results:\n%s", rendered)
	}
	// The adaptive bank must land near the best individual expert and
	// beat the naive last-value predictor on this wandering trace.
	if bank > best*1.25 {
		t.Fatalf("bank MSE %v vs best %v:\n%s", bank, best, rendered)
	}
	if bank >= last {
		t.Fatalf("bank (%v) should beat last-value (%v)", bank, last)
	}
}

func TestExtensionStriped(t *testing.T) {
	res, rendered, err := ExtensionStriped(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("configs = %d, want 3", len(res))
	}
	if !(res[0].Seconds > res[1].Seconds && res[1].Seconds > res[2].Seconds) {
		t.Fatalf("striping should monotonically help a disk-bound source:\n%s", rendered)
	}
	// Two stripes should roughly halve the time of one.
	ratio := res[0].Seconds / res[1].Seconds
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("1->2 stripes speedup = %.2fx, want ~2x:\n%s", ratio, rendered)
	}
}

func TestExtensionScale(t *testing.T) {
	res, rendered, err := ExtensionScale(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("sizes = %d, want 4", len(res))
	}
	for _, r := range res {
		if r.CostModelSeconds >= r.RandomSeconds {
			t.Fatalf("cost model should beat random at %d sites:\n%s", r.Sites, rendered)
		}
		if r.ImprovementPercent <= 0 {
			t.Fatalf("improvement %v at %d sites", r.ImprovementPercent, r.Sites)
		}
	}
}

// TestExtensionScaleDeterminismPin runs the scale study twice with the
// same seed and requires bit-identical rows and rendering. This is the
// regression net for the simulation core's determinism guarantee: the
// incremental allocator, the slow-start batches and the pooled event
// plumbing must never let run-to-run jitter into experiment output.
func TestExtensionScaleDeterminismPin(t *testing.T) {
	res1, rendered1, err := ExtensionScale(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	res2, rendered2, err := ExtensionScale(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rendered1 != rendered2 {
		t.Fatalf("same-seed renderings differ:\n--- first\n%s\n--- second\n%s", rendered1, rendered2)
	}
	if len(res1) != len(res2) {
		t.Fatalf("row counts differ: %d vs %d", len(res1), len(res2))
	}
	for i := range res1 {
		if res1[i] != res2[i] {
			t.Fatalf("row %d differs between same-seed runs:\n%+v\n%+v", i, res1[i], res2[i])
		}
	}
}

func TestExtensionReplication(t *testing.T) {
	res, rendered, err := ExtensionReplication(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("strategies = %d, want 2", len(res))
	}
	byName := map[string]ReplicationResult{}
	for _, r := range res {
		byName[r.Strategy] = r
	}
	base := byName["no-replication"]
	dyn := byName["threshold(3)"]
	if base.Replications != 0 || dyn.Replications != 1 {
		t.Fatalf("replication counts wrong:\n%s", rendered)
	}
	// Without replication fetch times stay flat; with it, later fetches
	// must be at least 1.5x faster than the early remote ones.
	if base.LateSeconds < base.EarlySeconds*0.9 || base.LateSeconds > base.EarlySeconds*1.1 {
		t.Fatalf("baseline should be flat:\n%s", rendered)
	}
	if dyn.LateSeconds >= dyn.EarlySeconds/1.5 {
		t.Fatalf("dynamic replication should speed up later fetches:\n%s", rendered)
	}
	// Both strategies see identical conditions before replication.
	if base.EarlySeconds != dyn.EarlySeconds {
		t.Fatalf("early fetches should match across strategies:\n%s", rendered)
	}
}

func TestExtensionCoallocation(t *testing.T) {
	res, rendered, err := ExtensionCoallocation(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("configs = %d, want 4", len(res))
	}
	byName := map[string]CoallocationResult{}
	for _, r := range res {
		byName[r.Config] = r
	}
	hit := byName["single hit0"].Seconds
	lz := byName["single lz02"].Seconds
	static := byName["static split hit0+lz02"].Seconds
	dynamic := byName["dynamic chunks hit0+lz02"].Seconds
	if !(hit < lz) {
		t.Fatalf("hit0 should be the faster single source:\n%s", rendered)
	}
	// The classic co-allocation ordering: dynamic < best-single < static
	// (an equal split waits on the slow server) < worst-single.
	if !(dynamic < hit && hit < static && static < lz) {
		t.Fatalf("expected dynamic < single-hit0 < static < single-lz02:\n%s", rendered)
	}
	dyn := byName["dynamic chunks hit0+lz02"]
	if dyn.BytesBySource["hit0"] <= dyn.BytesBySource["lz02"] {
		t.Fatalf("dynamic scheduling should favor the fast path:\n%s", rendered)
	}
}

func TestAblationLatency(t *testing.T) {
	res, rendered, err := AblationLatency(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("selectors = %d, want 2", len(res))
	}
	byName := map[string]LatencyResult{}
	for _, r := range res {
		byName[r.Selector] = r
	}
	plain := byName["cost-model"]
	aware := byName["cost-model+latency"]
	// The plain model is fooled by the far replica's high bandwidth
	// percentage; the latency-aware variant must avoid it and be at least
	// twice as fast on this small-file workload.
	if plain.FarPicks == 0 {
		t.Fatalf("scenario broken: plain model should be drawn to the far replica:\n%s", rendered)
	}
	if aware.FarPicks != 0 {
		t.Fatalf("latency-aware selector picked the far replica:\n%s", rendered)
	}
	if aware.MeanSeconds*2 > plain.MeanSeconds {
		t.Fatalf("latency awareness should at least halve fetch time:\n%s", rendered)
	}
}

// TestLatencyEnvRunsItsOwnSensors: the latency ablation is the one
// experiment that reads LatencyMs, so its world installs the latency
// sensors the default deployment no longer runs. The forecasts at the end
// of warm-up are pinned, so a change to the sensors' seeds (seed+2 for
// far, seed+4 for near) or to their place in the event order fails here.
func TestLatencyEnvRunsItsOwnSensors(t *testing.T) {
	env, err := latencyEnv(seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Engine.RunUntil(Warmup); err != nil {
		t.Fatal(err)
	}
	snap := env.Deploy.Server.Snapshot(env.Engine.Now())
	for _, c := range []struct {
		host string
		want string
	}{{"far", "84.703495"}, {"near", "25.551562"}} {
		r, err := snap.Lookup(c.host)
		if err != nil {
			t.Fatal(err)
		}
		if r.LatencyMs <= 0 {
			t.Fatalf("%s LatencyMs = %v, want > 0", c.host, r.LatencyMs)
		}
		if got := fmt.Sprintf("%.6f", r.LatencyMs); got != c.want {
			t.Fatalf("%s LatencyMs = %s, want %s", c.host, got, c.want)
		}
	}
}

func TestAblationAutoStreams(t *testing.T) {
	res, rendered, err := AblationAutoStreams(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 8 {
		t.Fatalf("rows = %d, want 8", len(res))
	}
	byPath := map[string]map[string]AutoStreamsResult{}
	for _, r := range res {
		if byPath[r.Path] == nil {
			byPath[r.Path] = map[string]AutoStreamsResult{}
		}
		byPath[r.Path][r.Config] = r
	}
	for path, rows := range byPath {
		var auto AutoStreamsResult
		best := -1.0
		for cfg, r := range rows {
			if len(cfg) > 4 && cfg[:4] == "auto" {
				auto = r
				continue
			}
			if best < 0 || r.Seconds < best {
				best = r.Seconds
			}
		}
		if auto.Streams < 1 || auto.Streams > 16 {
			t.Fatalf("%s: auto streams = %d", path, auto.Streams)
		}
		// One policy, both paths: within 5% of the best fixed setting.
		if auto.Seconds > best*1.05 {
			t.Fatalf("%s: auto (%v) should match best fixed (%v):\n%s",
				path, auto.Seconds, best, rendered)
		}
	}
}
