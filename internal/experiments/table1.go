package experiments

import (
	"fmt"
	"slices"
	"time"

	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/gridstate"
	"github.com/hpclab/datagrid/internal/metrics"
	"github.com/hpclab/datagrid/internal/simxfer"
	"github.com/hpclab/datagrid/internal/workload"
)

// Table1Candidate is one column of Table 1.
type Table1Candidate struct {
	Host string
	// Local marks the requesting host itself (alpha1), whose access is a
	// local disk read rather than a network transfer.
	Local bool
	// BWPercent, CPUIdle and IOIdle are the three system factors.
	BWPercent, CPUIdle, IOIdle float64
	// Score is the cost-model value.
	Score float64
	// TransferSeconds is the measured ("practical") transfer time of the
	// 1024 MB file-a.
	TransferSeconds float64
}

// Table1Result is the reproduced Table 1 plus the agreement checks the
// paper claims: the cost-model ranking matches the measured-time ranking.
type Table1Result struct {
	Candidates []Table1Candidate
	// OrderingsAgree reports whether descending score equals ascending
	// transfer time across all candidates.
	OrderingsAgree bool
	// Spearman is the rank correlation between score and transfer time
	// (should be near -1).
	Spearman float64
}

// decisionPoint is one world of the decision oracle: the reference world
// (no host), or one remote candidate's transfer at one instant.
type decisionPoint struct {
	instant int
	host    string
}

// decisions is the counterfactual behind every judged selection: for each
// instant and each candidate host, the report the monitored reference
// world's information server gives then, and the seconds the candidate's
// copy of bytes takes to reach alpha1 when the transfer starts then. Both
// tables are indexed [instant][host].
//
// The reference world runs through the instants and pins one snapshot at
// each, so every candidate is judged on the same grid state; alpha1's own
// copy is a local disk read timed there. Each remote transfer runs in a
// fresh world with the same seed, so measurements do not perturb each
// other, mirroring the paper's sequential measurements. The reference
// world is the first pool point and every (instant, remote host) the next.
func decisions(seed int64, workers int, what string, instants []time.Duration, hosts []string, bytes int64) ([][]gridstate.HostPerf, [][]float64, error) {
	const local = "alpha1"
	points := []decisionPoint{{}}
	for i := range instants {
		for _, h := range hosts {
			if h != local {
				points = append(points, decisionPoint{i, h})
			}
		}
	}
	// part carries either the reference world's reports and local reads
	// or one remote transfer's seconds.
	type part struct {
		reports [][]gridstate.HostPerf
		seconds [][]float64
		remote  float64
	}
	parts, err := sweep(workers, what, points, func(p decisionPoint) (part, error) {
		if p.host != "" {
			s, err := measureFresh(seed, true, instants[p.instant], p.host, local, bytes, simxfer.GridFTPOptions(0))
			return part{remote: s}, err
		}
		ref, err := NewEnv(seed, true)
		if err != nil {
			return part{}, err
		}
		var out part
		for _, at := range instants {
			if err := ref.Engine.RunUntil(at); err != nil {
				return part{}, err
			}
			snap := ref.Deploy.Server.Publisher().Snapshot(ref.Engine.Now())
			reports := make([]gridstate.HostPerf, len(hosts))
			seconds := make([]float64, len(hosts))
			for j, h := range hosts {
				if reports[j], err = snap.Lookup(h); err != nil {
					return part{}, fmt.Errorf("experiments: report for %s: %w", h, err)
				}
				if h == local {
					th, err := ref.Testbed.Host(h)
					if err != nil {
						return part{}, err
					}
					seconds[j] = float64(bytes) * 8 / th.EffectiveDiskReadBps()
				}
			}
			out.reports = append(out.reports, reports)
			out.seconds = append(out.seconds, seconds)
		}
		return out, nil
	})
	if err != nil {
		return nil, nil, err
	}
	reports, seconds := parts[0].reports, parts[0].seconds
	for k, p := range points[1:] {
		seconds[p.instant][slices.Index(hosts, p.host)] = parts[k+1].remote
	}
	return reports, seconds, nil
}

// Table1 reproduces Table 1: the three system factors, the cost-model
// score, and the measured transfer time of the 1024 MB logical file for
// the local host alpha1 and the replica holders alpha4, hit0 and lz02,
// one minute after warmup. Scores and times come from the decision
// oracle (decisions) at that one instant.
func Table1(seed int64, workers int) (Table1Result, string, error) {
	hosts := append([]string{"alpha1"}, fileAHosts...)
	reports, seconds, err := decisions(seed, workers, "table 1", []time.Duration{Warmup + time.Minute}, hosts, 1024*workload.MB)
	if err != nil {
		return Table1Result{}, "", err
	}
	var out Table1Result
	for j, h := range hosts {
		rep := reports[0][j]
		out.Candidates = append(out.Candidates, Table1Candidate{
			Host:            h,
			Local:           j == 0,
			BWPercent:       rep.BandwidthPercent,
			CPUIdle:         rep.CPUIdlePercent,
			IOIdle:          rep.IOIdlePercent,
			Score:           core.Score(rep, core.PaperWeights),
			TransferSeconds: seconds[0][j],
		})
	}

	scores := make([]float64, len(out.Candidates))
	negScores := make([]float64, len(out.Candidates))
	times := make([]float64, len(out.Candidates))
	for i, c := range out.Candidates {
		scores[i] = c.Score
		negScores[i] = -c.Score
		times[i] = c.TransferSeconds
	}
	out.OrderingsAgree, err = metrics.SameOrder(negScores, times)
	if err != nil {
		return Table1Result{}, "", err
	}
	out.Spearman, err = metrics.Spearman(scores, times)
	if err != nil {
		return Table1Result{}, "", err
	}

	tb := metrics.NewTable(
		"Table 1: replica selection cost model vs measured transfer time (file-a, 1024 MB, user at alpha1)",
		append([]string{"factor"}, hosts...)...)
	for _, col := range table1Columns.cols {
		if col.head == "" {
			continue
		}
		cells := []string{col.head}
		for _, c := range out.Candidates {
			cells = append(cells, fmt.Sprintf(col.format, col.value(c)))
		}
		tb.AddRow(cells...)
	}
	summary := fmt.Sprintf("ranking agreement: %v (Spearman score vs time = %.3f)\n",
		out.OrderingsAgree, out.Spearman)
	return out, tb.String() + summary, nil
}

// table1Columns are Table 1's columns. Its text is transposed, one line
// per headed column and one cell per candidate, and its metrics end with
// the Spearman correlation (table1Metrics).
var table1Columns = columns[Table1Candidate]{
	key: func(c Table1Candidate) string { return "table1/" + c.Host },
	cols: []column[Table1Candidate]{
		{"", "", "host", "%s", false, func(c Table1Candidate) any { return c.Host }},
		{"BW_P (i->j) %", "%.2f", "bw_pct", "%.2f", false, func(c Table1Candidate) any { return c.BWPercent }},
		{"CPU_P (j) %", "%.2f", "cpu_idle_pct", "%.2f", false, func(c Table1Candidate) any { return c.CPUIdle }},
		{"I/O_P (j) %", "%.2f", "io_idle_pct", "%.2f", false, func(c Table1Candidate) any { return c.IOIdle }},
		{"Score (80/10/10)", "%.2f", "score", "%.2f", true, func(c Table1Candidate) any { return c.Score }},
		{"Transfer time (s)", "%.2f", "transfer_sec", "%.2f", true, func(c Table1Candidate) any { return c.TransferSeconds }},
	},
}

// table1Metrics are each candidate's score and transfer time, then the
// Spearman correlation between them.
func table1Metrics(res Table1Result) []Metric {
	return append(table1Columns.metrics(res.Candidates), Metric{"table1/spearman", res.Spearman})
}
