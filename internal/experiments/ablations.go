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
	"github.com/hpclab/datagrid/internal/runner"
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
func AblationSelectors(seed int64, opts ...Option) ([]SelectorResult, string, error) {
	const fetches = 8
	const fileSize = 256 * workload.MB
	cfg := buildConfig(opts)
	policies := []struct {
		name string
		mk   func() core.Selector
	}{
		{"cost-model", func() core.Selector { return core.CostModelSelector{Weights: paperWeights()} }},
		{"bandwidth-only", func() core.Selector { return core.BandwidthOnlySelector{} }},
		{"round-robin", func() core.Selector { return &core.RoundRobinSelector{} }},
		{"random", func() core.Selector { return core.NewRandomSelector(seed) }},
	}
	var jobs []runner.Job[SelectorResult]
	for _, p := range policies {
		jobs = append(jobs, runner.Job[SelectorResult]{
			Name: "selectors/" + p.name,
			Run: func() (SelectorResult, error) {
				selPolicy := p.mk()
				env, err := NewEnv(seed, true)
				if err != nil {
					return SelectorResult{}, err
				}
				cat, err := buildCatalog(fileSize)
				if err != nil {
					return SelectorResult{}, err
				}
				srv, err := env.selectionFor(cat, paperWeights(), selPolicy)
				if err != nil {
					return SelectorResult{}, err
				}
				app, err := core.NewApplication("alpha1",
					srv, env.Xfer.TransferFunc(simxfer.GridFTPOptions(0)), env.Engine)
				if err != nil {
					return SelectorResult{}, err
				}
				if err := env.Engine.RunUntil(Warmup); err != nil {
					return SelectorResult{}, err
				}
				ds, err := sequentialFetches(env, app, "file-a", fetches, 30*time.Second, nil)
				if err != nil {
					return SelectorResult{}, err
				}
				return SelectorResult{Name: selPolicy.Name(), MeanSeconds: meanSeconds(ds), Fetches: len(ds)}, nil
			},
		})
	}
	out, err := runPoints(cfg, jobs)
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
func AblationWeights(seed int64, opts ...Option) ([]WeightResult, string, error) {
	const epochs = 5
	const fileSize = 512 * workload.MB
	cfg := buildConfig(opts)
	vectors := []core.Weights{
		{Bandwidth: 1.0},
		{Bandwidth: 0.8, CPU: 0.1, IO: 0.1}, // the paper's choice
		{Bandwidth: 0.6, CPU: 0.2, IO: 0.2},
		{Bandwidth: 1.0 / 3, CPU: 1.0 / 3, IO: 1.0 / 3},
		{CPU: 0.5, IO: 0.5},
	}
	hosts := []string{"alpha4", "hit0", "lz02"}
	epochAt := func(i int) time.Duration { return Warmup + time.Duration(i)*2*time.Minute }

	// One job replays the reference world and collects the
	// information-server reports per epoch; one job per (epoch, host)
	// measures that candidate's actual time in a cloned world.
	type part struct {
		reports []map[string]info.HostReport
		seconds float64
	}
	jobs := []runner.Job[part]{{
		Name: "weights/reports",
		Run: func() (part, error) {
			ref, err := NewEnv(seed, true)
			if err != nil {
				return part{}, err
			}
			reports := make([]map[string]info.HostReport, epochs)
			for i := 0; i < epochs; i++ {
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
		},
	}}
	for i := 0; i < epochs; i++ {
		for _, h := range hosts {
			jobs = append(jobs, runner.Job[part]{
				Name: fmt.Sprintf("weights/measure/epoch%d/%s", i, h),
				Run: func() (part, error) {
					world, err := NewEnv(seed, true)
					if err != nil {
						return part{}, err
					}
					res, err := world.MeasureAt(epochAt(i), h, "alpha1", fileSize, simxfer.GridFTPOptions(0))
					if err != nil {
						return part{}, err
					}
					return part{seconds: seconds(res.Duration())}, nil
				},
			})
		}
	}
	parts, err := runPoints(cfg, jobs)
	if err != nil {
		return nil, "", err
	}
	reports := parts[0].reports
	times := make([]map[string]float64, epochs)
	for i := 0; i < epochs; i++ {
		times[i] = map[string]float64{}
		for hi, h := range hosts {
			times[i][h] = parts[1+i*len(hosts)+hi].seconds
		}
	}

	var out []WeightResult
	for _, w := range vectors {
		sumTime, sumRegret := 0.0, 0.0
		for i := 0; i < epochs; i++ {
			// hosts is ascending, so the strict > breaks ties toward the
			// smaller host, as core's ranking does.
			best, bestScore := "", math.Inf(-1)
			for _, h := range hosts {
				if score := core.Score(reports[i][h], w); score > bestScore {
					best, bestScore = h, score
				}
			}
			oracle := math.Inf(1)
			for _, h := range hosts {
				oracle = math.Min(oracle, times[i][h])
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
func AblationForecasters(seed int64, opts ...Option) ([]ForecasterResult, string, error) {
	cfg := buildConfig(opts)
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

	// Score each individual expert and the adaptive bank as pool jobs:
	// each job owns its forecaster; the trace is shared read-only.
	nExperts := len(nws.DefaultForecasters())
	type scored struct {
		r  ForecasterResult
		ok bool
	}
	var jobs []runner.Job[scored]
	for i := 0; i < nExperts; i++ {
		jobs = append(jobs, runner.Job[scored]{
			Name: fmt.Sprintf("forecasters/expert%d", i),
			Run: func() (scored, error) {
				f := nws.DefaultForecasters()[i]
				sum, n := 0.0, 0
				for _, v := range trace {
					if p, ok := f.Predict(); ok {
						d := p - v
						sum += d * d
						n++
					}
					f.Update(v)
				}
				if n == 0 {
					return scored{}, nil
				}
				return scored{r: ForecasterResult{Name: f.Name(), MSE: sum / float64(n)}, ok: true}, nil
			},
		})
	}
	jobs = append(jobs, runner.Job[scored]{
		Name: "forecasters/bank",
		Run: func() (scored, error) {
			// The adaptive bank's forecast before each new value.
			bank, err := nws.NewBank(nil)
			if err != nil {
				return scored{}, err
			}
			sum, n := 0.0, 0
			for _, v := range trace {
				if fc, err := bank.Forecast(); err == nil {
					d := fc.Value - v
					sum += d * d
					n++
				}
				bank.Update(v)
			}
			return scored{r: ForecasterResult{Name: "nws-bank(adaptive)", MSE: sum / float64(n)}, ok: true}, nil
		},
	})
	parts, err := runPoints(cfg, jobs)
	if err != nil {
		return nil, "", err
	}
	var out []ForecasterResult
	for _, p := range parts {
		if p.ok {
			out = append(out, p.r)
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
