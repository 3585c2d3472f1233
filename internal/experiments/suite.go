package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/hpclab/datagrid/internal/metrics"
	"github.com/hpclab/datagrid/internal/runner"
	"github.com/hpclab/datagrid/internal/workload"
)

// Entry groups, in the order gridbench selects them.
const (
	GroupFigure3    = "figure3"
	GroupFigure4    = "figure4"
	GroupTable1     = "table1"
	GroupAblations  = "ablations"
	GroupExtensions = "extensions"
	// GroupFaults is the fault-tolerance sweep. It is deliberately NOT
	// part of -all: the historical -all output is pinned byte-for-byte,
	// and the sweep simulates 12 faulted worlds. gridbench selects it
	// with its own -faults flag.
	GroupFaults = "faults"
	// GroupScale is the planet-scale sweep (hundreds of sites, tens of
	// thousands of hosts, million-entry catalogs). Like GroupFaults it is
	// deliberately NOT part of -all — the historical -all output stays
	// pinned byte-for-byte, and the sweep builds worlds far larger than
	// the paper's. gridbench selects it with its own -scale flag.
	GroupScale = "planetscale"
	// GroupTraffic is the traffic-plane sweep (millions of Zipf-driven
	// requests against the dynamic-replication control loop). Like the
	// other large sweeps it is NOT part of -all; gridbench selects it
	// with its own -traffic flag.
	GroupTraffic = "traffic"
)

// Metric is one named scalar an experiment produced — the hook that lets
// multi-seed replication aggregate results without parsing tables.
type Metric struct {
	Name  string
	Value float64
}

// SuiteEntry is one experiment in the registry: a stable name, the
// gridbench flag group that selects it, and a closure producing the
// rendered table plus the scalar metrics behind it.
type SuiteEntry struct {
	Name  string
	Group string
	Run   func(seed int64, opts ...Option) (string, []Metric, error)
}

// EntryResult is one suite entry's outcome.
type EntryResult struct {
	Name    string
	Output  string
	Metrics []Metric
	Err     error
	Wall    time.Duration
}

// Suite returns the full experiment registry in the order `gridbench
// -all` has always printed it: the paper's two figures and table, the
// five ablations, the four extensions.
func Suite() []SuiteEntry {
	return []SuiteEntry{
		{Name: "figure 3", Group: GroupFigure3, Run: runFigure3},
		{Name: "figure 4", Group: GroupFigure4, Run: runFigure4},
		{Name: "table 1", Group: GroupTable1, Run: runTable1},
		{Name: "selector ablation", Group: GroupAblations, Run: runSelectors},
		{Name: "weight ablation", Group: GroupAblations, Run: runWeights},
		{Name: "forecaster ablation", Group: GroupAblations, Run: runForecasters},
		{Name: "latency ablation", Group: GroupAblations, Run: runLatency},
		{Name: "adaptive parallelism ablation", Group: GroupAblations, Run: runAutoStreams},
		{Name: "striped extension", Group: GroupExtensions, Run: runStriped},
		{Name: "scale extension", Group: GroupExtensions, Run: runScale},
		{Name: "replication extension", Group: GroupExtensions, Run: runReplication},
		{Name: "coallocation extension", Group: GroupExtensions, Run: runCoallocation},
		{Name: "fault tolerance", Group: GroupFaults, Run: runFaults},
		{Name: "planet scale", Group: GroupScale, Run: runPlanetScale},
		{Name: "traffic plane", Group: GroupTraffic, Run: runTraffic},
	}
}

// RunEntries executes the given entries on the worker pool and returns
// their results in registry order. Unlike the per-experiment fan-out
// (which fails fast), the suite collects every entry's error so one
// broken experiment cannot hide the others; the returned error joins
// all failures.
func RunEntries(entries []SuiteEntry, seed int64, workers int) ([]EntryResult, error) {
	jobs := make([]runner.Job[EntryResult], len(entries))
	for i, e := range entries {
		jobs[i] = runner.Job[EntryResult]{
			Name: e.Name,
			Run: func() (EntryResult, error) {
				out, ms, err := e.Run(seed, WithWorkers(workers))
				if err != nil {
					return EntryResult{}, err
				}
				return EntryResult{Name: e.Name, Output: out, Metrics: ms}, nil
			},
		}
	}
	rs, err := runner.Run(jobs, runner.Options{Workers: workers, Policy: runner.CollectAll})
	out := make([]EntryResult, len(rs))
	for i, r := range rs {
		out[i] = r.Value
		out[i].Name = entries[i].Name
		out[i].Err = r.Err
		out[i].Wall = r.Wall
	}
	return out, err
}

// MetricSummary aggregates one metric across replication trials.
type MetricSummary struct {
	Name string
	// Mean and CI95Half summarize the per-trial values: mean ± CI95Half
	// is the 95% confidence interval under Student's t.
	Mean     float64
	CI95Half float64
	Values   []float64
}

// ReplicateResult is a suite entry replicated across independent seeds.
type ReplicateResult struct {
	Entry   string
	Seeds   []int64
	Metrics []MetricSummary
}

// Replicate runs one suite entry under trials independent seeds and
// aggregates each metric as mean ± 95% CI. Trial 0 uses the base seed
// verbatim — so its numbers are exactly the published single-trial run —
// and trial t>0 uses runner.DeriveSeed(seed, t), the SplitMix64 stream
// that guarantees well-separated generator states per trial.
func Replicate(entry SuiteEntry, seed int64, trials, workers int) (ReplicateResult, error) {
	if trials < 1 {
		return ReplicateResult{}, fmt.Errorf("experiments: trials must be >= 1, got %d", trials)
	}
	seeds := make([]int64, trials)
	for t := range seeds {
		if t == 0 {
			seeds[t] = seed
		} else {
			seeds[t] = runner.DeriveSeed(seed, t)
		}
	}
	jobs := make([]runner.Job[[]Metric], trials)
	for t, trialSeed := range seeds {
		jobs[t] = runner.Job[[]Metric]{
			Name: fmt.Sprintf("%s/trial%d", entry.Name, t),
			Run: func() ([]Metric, error) {
				_, ms, err := entry.Run(trialSeed, WithWorkers(workers))
				return ms, err
			},
		}
	}
	rs, err := runner.Run(jobs, runner.Options{Workers: workers, Policy: runner.FailFast})
	if err != nil {
		return ReplicateResult{}, err
	}
	// Trial 0 fixes the metric set and order; later trials contribute
	// wherever their names match.
	byName := make(map[string][]float64)
	for _, r := range rs {
		for _, m := range r.Value {
			byName[m.Name] = append(byName[m.Name], m.Value)
		}
	}
	out := ReplicateResult{Entry: entry.Name, Seeds: seeds}
	for _, m := range rs[0].Value {
		vals, seen := byName[m.Name]
		if !seen {
			continue
		}
		delete(byName, m.Name)
		mean, half, err := metrics.MeanCI95(vals)
		if err != nil {
			return ReplicateResult{}, err
		}
		out.Metrics = append(out.Metrics, MetricSummary{
			Name: m.Name, Mean: mean, CI95Half: half, Values: vals,
		})
	}
	return out, nil
}

// Table renders a replication result as mean ± 95% CI per metric.
func (r ReplicateResult) Table() string {
	tb := metrics.NewTable(
		fmt.Sprintf("%s: %d trials (seeds %v), mean ± 95%% CI", r.Entry, len(r.Seeds), r.Seeds),
		"metric", "mean", "±95% CI", "n")
	for _, m := range r.Metrics {
		tb.AddRow(m.Name, fmt.Sprintf("%.3f", m.Mean),
			fmt.Sprintf("%.3f", m.CI95Half), fmt.Sprintf("%d", len(m.Values)))
	}
	return tb.String()
}

// The runX adapters bind each experiment to the registry shape and name
// its scalar metrics. Metric names must be seed-independent so that
// replication trials line up (e.g. the adaptive-parallelism "auto(n)"
// label, whose n can vary by seed, is normalized to "auto").

func runFigure3(seed int64, opts ...Option) (string, []Metric, error) {
	rows, out, err := Figure3(seed, opts...)
	if err != nil {
		return "", nil, err
	}
	var ms []Metric
	for _, r := range rows {
		ms = append(ms,
			Metric{fmt.Sprintf("fig3/%dMB/ftp_sec", r.SizeMB), r.FTPSeconds},
			Metric{fmt.Sprintf("fig3/%dMB/gridftp_sec", r.SizeMB), r.GridFTPSeconds})
	}
	return out, ms, nil
}

func runFigure4(seed int64, opts ...Option) (string, []Metric, error) {
	series, out, err := Figure4(seed, opts...)
	if err != nil {
		return "", nil, err
	}
	var ms []Metric
	for _, s := range series {
		for _, size := range workload.PaperFileSizesMB {
			ms = append(ms, Metric{
				fmt.Sprintf("fig4/streams=%d/%dMB_sec", s.Streams, size),
				s.SecondsBySizeMB[size]})
		}
	}
	return out, ms, nil
}

func runTable1(seed int64, opts ...Option) (string, []Metric, error) {
	res, out, err := Table1(seed, opts...)
	if err != nil {
		return "", nil, err
	}
	var ms []Metric
	for _, c := range res.Candidates {
		ms = append(ms,
			Metric{fmt.Sprintf("table1/%s/score", c.Host), c.Score},
			Metric{fmt.Sprintf("table1/%s/transfer_sec", c.Host), c.TransferSeconds})
	}
	ms = append(ms, Metric{"table1/spearman", res.Spearman})
	return out, ms, nil
}

func runSelectors(seed int64, opts ...Option) (string, []Metric, error) {
	rows, out, err := AblationSelectors(seed, opts...)
	if err != nil {
		return "", nil, err
	}
	var ms []Metric
	for _, r := range rows {
		ms = append(ms, Metric{fmt.Sprintf("selectors/%s/mean_sec", r.Name), r.MeanSeconds})
	}
	return out, ms, nil
}

func runWeights(seed int64, opts ...Option) (string, []Metric, error) {
	rows, out, err := AblationWeights(seed, opts...)
	if err != nil {
		return "", nil, err
	}
	var ms []Metric
	for _, r := range rows {
		key := fmt.Sprintf("weights/%.2f-%.2f-%.2f", r.Weights.Bandwidth, r.Weights.CPU, r.Weights.IO)
		ms = append(ms,
			Metric{key + "/mean_sec", r.MeanSeconds},
			Metric{key + "/regret_sec", r.MeanRegretSeconds})
	}
	return out, ms, nil
}

func runForecasters(seed int64, opts ...Option) (string, []Metric, error) {
	rows, out, err := AblationForecasters(seed, opts...)
	if err != nil {
		return "", nil, err
	}
	var ms []Metric
	for _, r := range rows {
		ms = append(ms, Metric{fmt.Sprintf("forecasters/%s/mse", r.Name), r.MSE})
	}
	return out, ms, nil
}

func runLatency(seed int64, opts ...Option) (string, []Metric, error) {
	rows, out, err := AblationLatency(seed, opts...)
	if err != nil {
		return "", nil, err
	}
	var ms []Metric
	for _, r := range rows {
		ms = append(ms,
			Metric{fmt.Sprintf("latency/%s/mean_sec", r.Selector), r.MeanSeconds},
			Metric{fmt.Sprintf("latency/%s/far_picks", r.Selector), float64(r.FarPicks)})
	}
	return out, ms, nil
}

func runAutoStreams(seed int64, opts ...Option) (string, []Metric, error) {
	rows, out, err := AblationAutoStreams(seed, opts...)
	if err != nil {
		return "", nil, err
	}
	var ms []Metric
	for _, r := range rows {
		config := r.Config
		if strings.HasPrefix(config, "auto(") {
			config = "auto"
		}
		ms = append(ms, Metric{fmt.Sprintf("autostreams/%s/%s/sec", r.Path, config), r.Seconds})
	}
	return out, ms, nil
}

func runStriped(seed int64, opts ...Option) (string, []Metric, error) {
	rows, out, err := ExtensionStriped(seed, opts...)
	if err != nil {
		return "", nil, err
	}
	var ms []Metric
	for _, r := range rows {
		ms = append(ms, Metric{fmt.Sprintf("striped/%d/sec", r.Stripes), r.Seconds})
	}
	return out, ms, nil
}

func runScale(seed int64, opts ...Option) (string, []Metric, error) {
	rows, out, err := ExtensionScale(seed, opts...)
	if err != nil {
		return "", nil, err
	}
	var ms []Metric
	for _, r := range rows {
		ms = append(ms,
			Metric{fmt.Sprintf("scale/%dsites/cost_model_sec", r.Sites), r.CostModelSeconds},
			Metric{fmt.Sprintf("scale/%dsites/random_sec", r.Sites), r.RandomSeconds})
	}
	return out, ms, nil
}

func runReplication(seed int64, opts ...Option) (string, []Metric, error) {
	rows, out, err := ExtensionReplication(seed, opts...)
	if err != nil {
		return "", nil, err
	}
	var ms []Metric
	for _, r := range rows {
		ms = append(ms,
			Metric{fmt.Sprintf("replication/%s/early_sec", r.Strategy), r.EarlySeconds},
			Metric{fmt.Sprintf("replication/%s/late_sec", r.Strategy), r.LateSeconds})
	}
	return out, ms, nil
}

func runCoallocation(seed int64, opts ...Option) (string, []Metric, error) {
	rows, out, err := ExtensionCoallocation(seed, opts...)
	if err != nil {
		return "", nil, err
	}
	var ms []Metric
	for _, r := range rows {
		ms = append(ms, Metric{fmt.Sprintf("coalloc/%s/sec", r.Config), r.Seconds})
	}
	return out, ms, nil
}

func runFaults(seed int64, opts ...Option) (string, []Metric, error) {
	rows, out, err := ExtensionFaults(seed, opts...)
	if err != nil {
		return "", nil, err
	}
	var ms []Metric
	for _, r := range rows {
		key := fmt.Sprintf("faults/i%d/%s", r.Intensity, r.Policy)
		ms = append(ms,
			Metric{key + "/completed", float64(r.Completed)},
			Metric{key + "/mean_sec", r.MeanSeconds},
			Metric{key + "/attempts", float64(r.Attempts)})
	}
	return out, ms, nil
}

func runTraffic(seed int64, opts ...Option) (string, []Metric, error) {
	rows, out, err := ExtensionTraffic(seed, opts...)
	if err != nil {
		return "", nil, err
	}
	var ms []Metric
	for _, r := range rows {
		key := fmt.Sprintf("traffic/%s/%s/i%d", r.Label, r.Policy, r.Intensity)
		ms = append(ms,
			Metric{key + "/requests", float64(r.Requests)},
			Metric{key + "/completed", float64(r.Completed)},
			Metric{key + "/failed", float64(r.Failed)},
			Metric{key + "/p50_sec", r.P50},
			Metric{key + "/p95_sec", r.P95},
			Metric{key + "/p99_sec", r.P99},
			Metric{key + "/goodput_mbps", r.GoodputMbps},
			Metric{key + "/site_skew", r.SiteSkew},
			Metric{key + "/replications", float64(r.Replications)})
	}
	return out, ms, nil
}

func runPlanetScale(seed int64, opts ...Option) (string, []Metric, error) {
	rows, out, err := ExtensionPlanetScale(seed, opts...)
	if err != nil {
		return "", nil, err
	}
	var ms []Metric
	for _, r := range rows {
		key := fmt.Sprintf("planetscale/%s", r.Label)
		ms = append(ms,
			Metric{key + "/tree_builds", float64(r.TreeBuilds)},
			Metric{key + "/pair_dijkstras", float64(r.PathBuilds)},
			Metric{key + "/dijkstra_savings", r.DijkstraSavings()},
			Metric{key + "/max_single_rank", float64(r.MaxSingleRank)},
			Metric{key + "/mean_xfer_sec", r.MeanTransferSec},
			Metric{key + "/realloc_events", float64(r.ReallocEvents)},
			Metric{key + "/realloc_rounds", float64(r.ReallocRounds)},
			Metric{key + "/flows_scanned", float64(r.FlowsScanned)},
			Metric{key + "/comps_dirtied", float64(r.ComponentsDirtied)},
			Metric{key + "/max_comp_flows", float64(r.MaxComponentFlows)},
			Metric{key + "/max_round_flows", float64(r.MaxRoundFlows)})
	}
	return out, ms, nil
}
