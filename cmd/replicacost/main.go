// Command replicacost is the terminal analogue of the paper's Fig. 5 GUI:
// it runs the monitored testbed, samples every replica candidate's
// cost-model score over time, prints the per-site cost series, the
// sliding-window averages for an adjustable time scale, and the sorted
// cost list (the "Cost button" view). Each sampling row is scored against
// one pinned grid-state snapshot; the epoch range is printed so the views
// can be correlated with the monitoring stream.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/hpclab/datagrid/internal/experiments"
	"github.com/hpclab/datagrid/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("replicacost", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 42, "simulation seed")
		span      = fs.Duration("span", 2*time.Minute, "observation window (virtual time)")
		period    = fs.Duration("period", 10*time.Second, "sampling period")
		timescale = fs.Int("timescale", 6, "sliding-average window in samples (the Fig. 5 scroll bar)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *timescale <= 0 {
		fmt.Fprintln(stderr, "replicacost: -timescale must be positive")
		return 2
	}

	points, err := experiments.CostSeries(*seed, *span, *period)
	if err != nil {
		fmt.Fprintf(stderr, "replicacost: %v\n", err)
		return 1
	}
	return render(points, *seed, *period, *timescale, stdout, stderr)
}

// render prints the three Fig. 5 views from a sampled cost series.
func render(points []experiments.CostPoint, seed int64, period time.Duration, timescale int, stdout, stderr io.Writer) int {
	byHost := map[string][]experiments.CostPoint{}
	var hosts []string
	for _, p := range points {
		if _, ok := byHost[p.Host]; !ok {
			hosts = append(hosts, p.Host)
		}
		byHost[p.Host] = append(byHost[p.Host], p)
	}
	sort.Strings(hosts)

	// Cost over time, one series per candidate (Fig. 5a).
	var series []metrics.Series
	for _, h := range hosts {
		s := metrics.Series{Name: h}
		for _, p := range byHost[h] {
			s.AddPoint(p.At.Seconds(), p.Score)
		}
		series = append(series, s)
	}
	rendered, err := metrics.RenderSeries(
		fmt.Sprintf("Replica costs toward alpha1 (seed %d)", seed),
		"t (s)", "cost", series)
	if err != nil {
		fmt.Fprintf(stderr, "replicacost: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, rendered)

	// Snapshot provenance: which grid-state epochs the samples came from.
	if len(points) > 0 {
		lo, hi := points[0].Epoch, points[0].Epoch
		seen := map[uint64]bool{}
		for _, p := range points {
			if p.Epoch < lo {
				lo = p.Epoch
			}
			if p.Epoch > hi {
				hi = p.Epoch
			}
			seen[p.Epoch] = true
		}
		fmt.Fprintf(stdout, "grid-state snapshots: epochs %d..%d (%d distinct epochs over %d samples)\n\n",
			lo, hi, len(seen), len(points))
	}

	// Sliding-window average at the selected time scale (Fig. 5b).
	avg := metrics.NewTable(
		fmt.Sprintf("Average cost over the last %d samples (time scale = %v)",
			timescale, time.Duration(timescale)*period),
		"host", "avg cost")
	type hostAvg struct {
		host string
		mean float64
	}
	var avgs []hostAvg
	for _, h := range hosts {
		scores := make([]float64, len(byHost[h]))
		for i, p := range byHost[h] {
			scores[i] = p.Score
		}
		m, err := metrics.Mean(scores[max(0, len(scores)-timescale):])
		if err != nil {
			fmt.Fprintf(stderr, "replicacost: %v\n", err)
			return 1
		}
		avgs = append(avgs, hostAvg{h, m})
	}
	for _, a := range avgs {
		avg.AddRow(a.host, fmt.Sprintf("%.2f", a.mean))
	}
	fmt.Fprintln(stdout, avg.String())

	// Sorted cost list, best replica first (the Cost button).
	sort.Slice(avgs, func(i, j int) bool { return avgs[i].mean > avgs[j].mean })
	sorted := metrics.NewTable("Replicas sorted by cost (best first)", "rank", "host", "cost")
	for i, a := range avgs {
		sorted.AddRow(fmt.Sprintf("%d", i+1), a.host, fmt.Sprintf("%.2f", a.mean))
	}
	fmt.Fprintln(stdout, sorted.String())
	return 0
}
