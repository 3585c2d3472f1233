package experiments

import (
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/core"
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

// Table1 reproduces Table 1: the three system factors, the cost-model
// score, and the measured transfer time of the 1024 MB logical file for
// the local host alpha1 and the replica holders alpha4, hit0 and lz02.
//
// Method: a reference world (seeded) runs the full monitoring deployment
// to a snapshot time; scores come from its information server. Each
// candidate's practical transfer time is then measured in a fresh world
// with the same seed — identical conditions — so measurements do not
// perturb each other, mirroring the paper's sequential measurements.
//
// Execution fans out across the worker pool with one point per host:
// alpha1's point rebuilds the reference world (every candidate's factors
// and score, and alpha1's local disk read), and each remote host's point
// measures its transfer in a private world.
func Table1(seed int64, workers int) (Table1Result, string, error) {
	const fileSize = 1024 * workload.MB
	snapshot := Warmup + time.Minute

	hosts := []string{"alpha1", "alpha4", "hit0", "lz02"}
	// part carries either the reference point's candidates or one remote
	// host's measured transfer seconds.
	type part struct {
		candidates []Table1Candidate
		seconds    float64
	}
	parts, err := sweep(workers, "table 1", hosts, func(host string) (part, error) {
		if host != "alpha1" {
			s, err := measureFresh(seed, true, snapshot, host, "alpha1", fileSize, simxfer.GridFTPOptions(0))
			return part{seconds: s}, err
		}
		ref, err := NewEnv(seed, true)
		if err != nil {
			return part{}, err
		}
		if err := ref.Engine.RunUntil(snapshot); err != nil {
			return part{}, err
		}
		// Pin one grid-state snapshot so every candidate's factors come
		// from the same epoch, not four separate pulls.
		snap := ref.Deploy.Server.Snapshot(ref.Engine.Now())
		var cands []Table1Candidate
		for _, h := range hosts {
			rep, err := snap.Lookup(h)
			if err != nil {
				return part{}, fmt.Errorf("experiments: report for %s: %w", h, err)
			}
			c := Table1Candidate{
				Host:      h,
				Local:     h == host,
				BWPercent: rep.BandwidthPercent,
				CPUIdle:   rep.CPUIdlePercent,
				IOIdle:    rep.IOIdlePercent,
				Score:     core.Score(rep, core.PaperWeights),
			}
			if c.Local {
				// Local access: read the file from the local disk.
				th, err := ref.Testbed.Host(h)
				if err != nil {
					return part{}, err
				}
				c.TransferSeconds = float64(fileSize) * 8 / th.EffectiveDiskReadBps()
			}
			cands = append(cands, c)
		}
		return part{candidates: cands}, nil
	})
	if err != nil {
		return Table1Result{}, "", err
	}
	out := Table1Result{Candidates: parts[0].candidates}
	for i := range hosts {
		if !out.Candidates[i].Local {
			out.Candidates[i].TransferSeconds = parts[i].seconds
		}
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
		"factor", "alpha1", "alpha4", "hit0", "lz02")
	addRow := func(label string, get func(Table1Candidate) float64) {
		cells := []string{label}
		for _, c := range out.Candidates {
			cells = append(cells, fmt.Sprintf("%.2f", get(c)))
		}
		tb.AddRow(cells...)
	}
	addRow("BW_P (i->j) %", func(c Table1Candidate) float64 { return c.BWPercent })
	addRow("CPU_P (j) %", func(c Table1Candidate) float64 { return c.CPUIdle })
	addRow("I/O_P (j) %", func(c Table1Candidate) float64 { return c.IOIdle })
	addRow("Score (80/10/10)", func(c Table1Candidate) float64 { return c.Score })
	addRow("Transfer time (s)", func(c Table1Candidate) float64 { return c.TransferSeconds })
	summary := fmt.Sprintf("ranking agreement: %v (Spearman score vs time = %.3f)\n",
		out.OrderingsAgree, out.Spearman)
	return out, tb.String() + summary, nil
}
