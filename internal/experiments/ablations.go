package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/info"
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
		cat, err := buildCatalog(fileSize)
		if err != nil {
			return SelectorResult{}, err
		}
		srv, err := env.selectionFor(cat, sel)
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
	hosts := []string{"alpha4", "hit0", "lz02"}
	epochAt := func(i int) time.Duration { return Warmup + time.Duration(i)*2*time.Minute }

	// The first point (no host) replays the reference world and collects
	// the information-server reports per epoch; every (epoch, host) point
	// measures that candidate's actual time in a cloned world.
	type point struct {
		epoch int
		host  string
	}
	points := []point{{}}
	for i := 0; i < epochs; i++ {
		for _, h := range hosts {
			points = append(points, point{i, h})
		}
	}
	type part struct {
		reports []map[string]info.HostReport
		seconds float64
	}
	parts, err := sweep(workers, "weight ablation", points, func(p point) (part, error) {
		if p.host != "" {
			s, err := measureFresh(seed, true, epochAt(p.epoch), p.host, "alpha1", fileSize, simxfer.GridFTPOptions(0))
			return part{seconds: s}, err
		}
		ref, err := NewEnv(seed, true)
		if err != nil {
			return part{}, err
		}
		reports := make([]map[string]info.HostReport, epochs)
		for i := range reports {
			if err := ref.Engine.RunUntil(epochAt(i)); err != nil {
				return part{}, err
			}
			// One pinned snapshot per decision epoch: all three
			// candidates are judged on the same grid state.
			snap := ref.Deploy.Server.Snapshot(ref.Engine.Now())
			reports[i] = map[string]info.HostReport{}
			for _, h := range hosts {
				rep, err := snap.Lookup(h)
				if err != nil {
					return part{}, err
				}
				reports[i][h] = rep
			}
		}
		return part{reports: reports}, nil
	})
	if err != nil {
		return nil, "", err
	}
	reports := parts[0].reports
	times := make(map[point]float64, len(points))
	for i, p := range points {
		times[p] = parts[i].seconds
	}

	var out []WeightResult
	for _, w := range vectors {
		sumTime, sumRegret := 0.0, 0.0
		for i := 0; i < epochs; i++ {
			// hosts is ascending, so the strict > breaks ties toward the
			// smaller host, as core's ranking does.
			best, bestScore, oracle := "", math.Inf(-1), math.Inf(1)
			for _, h := range hosts {
				if score := core.Score(reports[i][h], w); score > bestScore {
					best, bestScore = h, score
				}
				oracle = math.Min(oracle, times[point{i, h}])
			}
			sumTime += times[point{i, best}]
			sumRegret += times[point{i, best}] - oracle
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
func AblationForecasters(seed int64, workers int) ([]ForecasterResult, string, error) {
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

	// Score each individual expert and the adaptive bank (the last
	// point) as pool points: each point owns its forecaster; the trace is
	// shared read-only.
	nExperts := len(nws.DefaultForecasters())
	points := make([]int, nExperts+1)
	for i := range points {
		points[i] = i
	}
	scored, err := sweep(workers, "forecaster ablation", points, func(i int) (ForecasterResult, error) {
		var name string
		var predict func() (float64, bool)
		var update func(float64)
		if i < nExperts {
			f := nws.DefaultForecasters()[i]
			name, predict, update = f.Name(), f.Predict, f.Update
		} else {
			// The adaptive bank's forecast before each new value.
			bank, err := nws.NewBank(nil)
			if err != nil {
				return ForecasterResult{}, err
			}
			name, update = "nws-bank(adaptive)", bank.Update
			predict = func() (float64, bool) {
				fc, err := bank.Forecast()
				return fc.Value, err == nil
			}
		}
		sum, n := 0.0, 0
		for _, v := range trace {
			if p, ok := predict(); ok {
				d := p - v
				sum += d * d
				n++
			}
			update(v)
		}
		if n == 0 {
			return ForecasterResult{}, nil // never predicted: no row
		}
		return ForecasterResult{Name: name, MSE: sum / float64(n)}, nil
	})
	if err != nil {
		return nil, "", err
	}
	var out []ForecasterResult
	for _, r := range scored {
		if r.Name != "" {
			out = append(out, r)
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
