package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/metrics"
	"github.com/hpclab/datagrid/internal/nws"
	"github.com/hpclab/datagrid/internal/simxfer"
	"github.com/hpclab/datagrid/internal/workload"
)

// SelectorResult is one policy's outcome in the selector ablation.
type SelectorResult struct {
	Name        string
	MeanSeconds float64
	Fetches     int
}

// AblationSelectors compares the cost model against the no-information
// baselines (random, round-robin) and the bandwidth-only variant on the
// same sequence of fetches under identical dynamics. The paper has no
// explicit baseline; this quantifies what the model buys.
func AblationSelectors(seed int64, workers int) ([]SelectorResult, string, error) {
	const fetches = 8
	const fileSize = 256 * workload.MB
	policies := []string{"cost-model", "bandwidth-only", "round-robin", "random"}
	out, err := sweep(workers, "selector ablation", policies, func(policy string) (SelectorResult, error) {
		var sel core.Selector = core.CostModelSelector{Weights: core.PaperWeights}
		switch policy {
		case "bandwidth-only":
			sel = core.BandwidthOnlySelector{}
		case "round-robin":
			sel = &core.RoundRobinSelector{}
		case "random":
			sel = core.NewRandomSelector(seed)
		}
		env, err := NewEnv(seed, true)
		if err != nil {
			return SelectorResult{}, err
		}
		srv, _, err := env.selectFile("file-a", fileSize, fileAAttrs, fileAHosts, sel)
		if err != nil {
			return SelectorResult{}, err
		}
		ds, err := env.sequentialFetches(srv, "alpha1", env.Xfer.TransferFunc(simxfer.GridFTPOptions(0)),
			"file-a", fetches, 30*time.Second, nil)
		return SelectorResult{Name: sel.Name(), MeanSeconds: meanSeconds(ds), Fetches: len(ds)}, err
	})
	if err != nil {
		return nil, "", err
	}
	tb := metrics.NewTable("Ablation: selection policy vs mean fetch time (256 MB, 8 fetches)",
		"policy", "mean fetch time (s)")
	for _, r := range out {
		tb.AddRow(r.Name, fmt.Sprintf("%.2f", r.MeanSeconds))
	}
	return out, tb.String(), nil
}

// WeightResult is one weight vector's outcome in the weight-sensitivity
// ablation.
type WeightResult struct {
	Weights core.Weights
	// MeanSeconds is the mean transfer time of the chosen replicas.
	MeanSeconds float64
	// MeanRegretSeconds is mean(chosen time - best candidate time).
	MeanRegretSeconds float64
}

// AblationWeights sweeps cost-model weight vectors. For each decision
// epoch every candidate's actual transfer time is measured in a cloned
// world, so each weight vector's choices can be scored against the oracle
// (future work #2 of the paper: "how to determine the system factors
// weight").
func AblationWeights(seed int64, workers int) ([]WeightResult, string, error) {
	const epochs = 5
	const fileSize = 512 * workload.MB
	vectors := []core.Weights{
		{Bandwidth: 1.0},
		{Bandwidth: 0.8, CPU: 0.1, IO: 0.1}, // the paper's choice
		{Bandwidth: 0.6, CPU: 0.2, IO: 0.2},
		{Bandwidth: 1.0 / 3, CPU: 1.0 / 3, IO: 1.0 / 3},
		{CPU: 0.5, IO: 0.5},
	}
	instants := make([]time.Duration, epochs)
	for i := range instants {
		instants[i] = Warmup + time.Duration(i)*2*time.Minute
	}
	reports, times, err := decisions(seed, workers, "weight ablation", instants, fileAHosts, fileSize)
	if err != nil {
		return nil, "", err
	}

	var out []WeightResult
	for _, w := range vectors {
		sumTime, sumRegret := 0.0, 0.0
		for i := range instants {
			// Hosts are ascending, so the strict > breaks ties toward the
			// smaller host, as core's ranking does.
			best, bestScore, oracle := 0, math.Inf(-1), math.Inf(1)
			for j := range fileAHosts {
				if score := core.Score(reports[i][j], w); score > bestScore {
					best, bestScore = j, score
				}
				oracle = math.Min(oracle, times[i][j])
			}
			sumTime += times[i][best]
			sumRegret += times[i][best] - oracle
		}
		out = append(out, WeightResult{
			Weights:           w,
			MeanSeconds:       sumTime / epochs,
			MeanRegretSeconds: sumRegret / epochs,
		})
	}
	tb := metrics.NewTable("Ablation: weight sensitivity (512 MB, 5 epochs, oracle regret)",
		"W_bw/W_cpu/W_io", "mean time (s)", "mean regret (s)")
	for _, r := range out {
		tb.AddRow(fmt.Sprintf("%.2f/%.2f/%.2f", r.Weights.Bandwidth, r.Weights.CPU, r.Weights.IO),
			fmt.Sprintf("%.2f", r.MeanSeconds), fmt.Sprintf("%.2f", r.MeanRegretSeconds))
	}
	return out, tb.String(), nil
}

// ForecasterResult is one predictor's error on the testbed bandwidth trace.
type ForecasterResult struct {
	Name string
	MSE  float64
}

// AblationForecasters scores each NWS expert — and the adaptive bank —
// with one-step-ahead mean squared error on a bandwidth measurement trace
// recorded from the monitored testbed (hit0 -> alpha1, whose backbone
// background traffic makes the trace genuinely dynamic).
func AblationForecasters(seed int64, _ int) ([]ForecasterResult, string, error) {
	env, err := NewEnv(seed, true)
	if err != nil {
		return nil, "", err
	}
	if err := env.Engine.RunUntil(Warmup + 45*time.Minute); err != nil {
		return nil, "", err
	}
	// hit0 -> alpha1 crosses the 100 Mb/s backbone whose background load
	// wanders, so the measured bandwidth actually varies; the Li-Zen path
	// is pinned at its Mathis loss limit and would give a flat trace.
	hist, err := env.Deploy.NWS.History(nws.SeriesKey{
		Resource: nws.ResourceBandwidth, Source: "hit0", Target: "alpha1",
	})
	if err != nil {
		return nil, "", err
	}
	if len(hist) < 20 {
		return nil, "", fmt.Errorf("experiments: only %d bandwidth samples", len(hist))
	}
	trace := make([]float64, len(hist))
	for i, m := range hist {
		trace[i] = m.Value
	}

	// One bank scores every expert as it learns the trace; the adaptive
	// row scores the bank's own forecast before each new value.
	bank, err := nws.NewBank(nil)
	if err != nil {
		return nil, "", err
	}
	adaptive := nws.ExpertScore{Name: "nws-bank(adaptive)"}
	sum := 0.0
	for _, v := range trace {
		if fc, err := bank.Forecast(); err == nil {
			d := fc.Value - v
			sum += d * d
			adaptive.Scored++
		}
		bank.Update(v)
	}
	adaptive.MSE = sum / float64(adaptive.Scored)
	var out []ForecasterResult
	for _, e := range append(bank.Experts(), adaptive) {
		if e.Scored > 0 { // never predicted: no row
			out = append(out, ForecasterResult{Name: e.Name, MSE: e.MSE})
		}
	}

	sort.Slice(out, func(i, j int) bool { return out[i].MSE < out[j].MSE })
	tb := metrics.NewTable(
		fmt.Sprintf("Ablation: forecaster one-step MSE on %d-sample hit0->alpha1 bandwidth trace", len(trace)),
		"forecaster", "MSE (Mb/s)^2")
	for _, r := range out {
		tb.AddRow(r.Name, fmt.Sprintf("%.4f", r.MSE))
	}
	return out, tb.String(), nil
}
