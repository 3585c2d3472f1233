package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/hpclab/datagrid/internal/metrics"
	"github.com/hpclab/datagrid/internal/runner"
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
	// Run takes the seed and the worker count (≤ 0 means GOMAXPROCS).
	Run func(seed int64, workers int) (string, []Metric, error)
	// CSV runs the experiment like Run and writes its rows to w as CSV;
	// it is nil for an entry without a CSV form.
	CSV func(seed int64, workers int, w io.Writer) error
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
// five ablations, the four extensions; then the opt-in sweeps. Each
// entry names its scalar metrics. Metric names must be seed-independent
// so that replication trials line up (e.g. the adaptive-parallelism
// "auto(n)" label, whose n can vary by seed, is normalized to "auto").
func Suite() []SuiteEntry {
	return []SuiteEntry{
		entry("figure 3", GroupFigure3, Figure3, figure3Columns.metrics, figure3Columns.records),
		entry("figure 4", GroupFigure4, Figure4, figure4Metrics, figure4Columns.records),
		entry("table 1", GroupTable1, Table1, table1Metrics, func(res Table1Result) [][]string {
			return table1Columns.records(res.Candidates)
		}),
		entry("selector ablation", GroupAblations, AblationSelectors, func(rows []SelectorResult) (ms []Metric) {
			for _, r := range rows {
				ms = append(ms, Metric{fmt.Sprintf("selectors/%s/mean_sec", r.Name), r.MeanSeconds})
			}
			return ms
		}, nil),
		entry("weight ablation", GroupAblations, AblationWeights, func(rows []WeightResult) (ms []Metric) {
			for _, r := range rows {
				key := fmt.Sprintf("weights/%.2f-%.2f-%.2f", r.Weights.Bandwidth, r.Weights.CPU, r.Weights.IO)
				ms = append(ms,
					Metric{key + "/mean_sec", r.MeanSeconds},
					Metric{key + "/regret_sec", r.MeanRegretSeconds})
			}
			return ms
		}, nil),
		entry("forecaster ablation", GroupAblations, AblationForecasters, func(rows []ForecasterResult) (ms []Metric) {
			for _, r := range rows {
				ms = append(ms, Metric{fmt.Sprintf("forecasters/%s/mse", r.Name), r.MSE})
			}
			return ms
		}, nil),
		entry("latency ablation", GroupAblations, AblationLatency, func(rows []LatencyResult) (ms []Metric) {
			for _, r := range rows {
				ms = append(ms,
					Metric{fmt.Sprintf("latency/%s/mean_sec", r.Selector), r.MeanSeconds},
					Metric{fmt.Sprintf("latency/%s/far_picks", r.Selector), float64(r.FarPicks)})
			}
			return ms
		}, nil),
		entry("adaptive parallelism ablation", GroupAblations, AblationAutoStreams, func(rows []AutoStreamsResult) (ms []Metric) {
			for _, r := range rows {
				config := r.Config
				if strings.HasPrefix(config, "auto(") {
					config = "auto"
				}
				ms = append(ms, Metric{fmt.Sprintf("autostreams/%s/%s/sec", r.Path, config), r.Seconds})
			}
			return ms
		}, nil),
		entry("striped extension", GroupExtensions, ExtensionStriped, func(rows []StripedResult) (ms []Metric) {
			for _, r := range rows {
				ms = append(ms, Metric{fmt.Sprintf("striped/%d/sec", r.Stripes), r.Seconds})
			}
			return ms
		}, nil),
		entry("scale extension", GroupExtensions, ExtensionScale, func(rows []ScaleResult) (ms []Metric) {
			for _, r := range rows {
				ms = append(ms,
					Metric{fmt.Sprintf("scale/%dsites/cost_model_sec", r.Sites), r.CostModelSeconds},
					Metric{fmt.Sprintf("scale/%dsites/random_sec", r.Sites), r.RandomSeconds})
			}
			return ms
		}, nil),
		entry("replication extension", GroupExtensions, ExtensionReplication, func(rows []ReplicationResult) (ms []Metric) {
			for _, r := range rows {
				ms = append(ms,
					Metric{fmt.Sprintf("replication/%s/early_sec", r.Strategy), r.EarlySeconds},
					Metric{fmt.Sprintf("replication/%s/late_sec", r.Strategy), r.LateSeconds})
			}
			return ms
		}, nil),
		entry("coallocation extension", GroupExtensions, ExtensionCoallocation, func(rows []CoallocationResult) (ms []Metric) {
			for _, r := range rows {
				ms = append(ms, Metric{fmt.Sprintf("coalloc/%s/sec", r.Config), r.Seconds})
			}
			return ms
		}, nil),
		entry("fault tolerance", GroupFaults, ExtensionFaults, faultsColumns.metrics, faultsColumns.records),
		entry("planet scale", GroupScale, ExtensionPlanetScale, planetScaleColumns.metrics, planetScaleColumns.records),
		entry("traffic plane", GroupTraffic, ExtensionTraffic, trafficColumns.metrics, trafficColumns.records),
	}
}

// entry binds one experiment to the registry shape: run's rendered table
// is the entry's output, metricsOf names the scalars behind it, and
// csvOf, when not nil, gives the entry its CSV form.
func entry[R any](name, group string, run func(seed int64, workers int) (R, string, error),
	metricsOf func(R) []Metric, csvOf func(R) [][]string) SuiteEntry {
	e := SuiteEntry{Name: name, Group: group, Run: func(seed int64, workers int) (string, []Metric, error) {
		r, out, err := run(seed, workers)
		if err != nil {
			return "", nil, err
		}
		return out, metricsOf(r), nil
	}}
	if csvOf != nil {
		e.CSV = func(seed int64, workers int, w io.Writer) error {
			r, _, err := run(seed, workers)
			if err != nil {
				return err
			}
			return csv.NewWriter(w).WriteAll(csvOf(r))
		}
	}
	return e
}

// RunEntries executes the given entries on the worker pool and returns
// their results in registry order. Every entry runs, so one broken
// experiment cannot hide the others; the returned error joins all
// failures in registry order.
func RunEntries(entries []SuiteEntry, seed int64, workers int) ([]EntryResult, error) {
	jobs := make([]runner.Job[EntryResult], len(entries))
	for i, e := range entries {
		jobs[i] = runner.Job[EntryResult]{Name: e.Name, Run: func() (EntryResult, error) {
			out, ms, err := e.Run(seed, workers)
			return EntryResult{Output: out, Metrics: ms}, err
		}}
	}
	rs, err := runner.Run(jobs, workers)
	out := make([]EntryResult, len(rs))
	for i, r := range rs {
		out[i] = r.Value
		out[i].Name, out[i].Err, out[i].Wall = entries[i].Name, r.Err, r.Wall
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
	seeds := []int64{seed}
	for t := 1; t < trials; t++ {
		seeds = append(seeds, runner.DeriveSeed(seed, t))
	}
	trialMetrics, err := sweep(workers, entry.Name, seeds, func(trialSeed int64) ([]Metric, error) {
		_, ms, err := entry.Run(trialSeed, workers)
		return ms, err
	})
	if err != nil {
		return ReplicateResult{}, err
	}
	// Trial 0 fixes the metric set and order; later trials contribute
	// wherever their names match.
	byName := make(map[string][]float64)
	for _, ms := range trialMetrics {
		for _, m := range ms {
			byName[m.Name] = append(byName[m.Name], m.Value)
		}
	}
	out := ReplicateResult{Entry: entry.Name, Seeds: seeds}
	for _, m := range trialMetrics[0] {
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
