// Command gridbench regenerates the paper's evaluation artifacts — Fig. 3,
// Fig. 4, Table 1 — and the repository's ablation and extension
// experiments, printing each in the same rows/series form the paper
// reports.
//
//	gridbench -fig 3
//	gridbench -fig 4
//	gridbench -table 1
//	gridbench -ablations
//	gridbench -extensions
//	gridbench -all
//
// Experiments run concurrently on a deterministic worker pool: -parallel N
// sets the pool size (1 reproduces the historical sequential execution),
// and the output is byte-identical at every N. -trials T replicates each
// selected experiment under T independent seeds and reports each metric
// as mean ± 95% confidence interval; the published numbers remain the
// single-trial seed-42 run.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"

	"github.com/hpclab/datagrid/internal/experiments"
	"github.com/hpclab/datagrid/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes the selected
// experiments and writes results to stdout, failures to stderr. Unlike
// the historical behavior (abort on the first failed experiment), every
// failure is collected and reported at the end so one broken experiment
// cannot hide the others; the exit code is non-zero if any failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gridbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig        = fs.Int("fig", 0, "figure number to regenerate (3 or 4)")
		table      = fs.Int("table", 0, "table number to regenerate (1)")
		ablations  = fs.Bool("ablations", false, "run the ablation studies")
		extensions = fs.Bool("extensions", false, "run the extension experiments")
		faults     = fs.Bool("faults", false, "run the fault-tolerance sweep (not part of -all)")
		scale      = fs.Bool("scale", false, "run the planet-scale sweep (not part of -all)")
		traffic    = fs.Bool("traffic", false, "run the traffic-plane sweep (not part of -all)")
		all        = fs.Bool("all", false, "run everything except the fault-tolerance, planet-scale and traffic sweeps")
		asCSV      = fs.Bool("csv", false, "emit the selected figure/table as CSV (for plotting)")
		seed       = fs.Int64("seed", 42, "simulation seed")
		parallel   = fs.Int("parallel", runtime.NumCPU(), "worker pool size (1 = sequential; output is identical at any value)")
		trials     = fs.Int("trials", 1, "independent seeds per experiment; >1 reports mean ± 95% CI")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parallel < 1 {
		fmt.Fprintf(stderr, "gridbench: -parallel must be >= 1, got %d\n", *parallel)
		return 2
	}
	if *trials < 1 {
		fmt.Fprintf(stderr, "gridbench: -trials must be >= 1, got %d\n", *trials)
		return 2
	}

	if *asCSV {
		// -csv prints one artifact's rows from one seed; refuse what it
		// would otherwise drop silently.
		selected := 0
		for _, on := range []bool{*all, *fig != 0, *table != 0, *ablations, *extensions, *faults, *scale, *traffic} {
			if on {
				selected++
			}
		}
		if selected > 1 {
			fmt.Fprintln(stderr, "gridbench: -csv prints one artifact; select only one")
			return 2
		}
		if *trials > 1 {
			fmt.Fprintln(stderr, "gridbench: -csv prints one seed's rows; it cannot aggregate -trials")
			return 2
		}
		if err := emitCSV(*fig, *table, *faults, *scale, *traffic, *seed, *parallel, stdout); err != nil {
			fmt.Fprintf(stderr, "gridbench: %v\n", err)
			return 1
		}
		return 0
	}

	entries := selectEntries(*all, *fig, *table, *ablations, *extensions, *faults, *scale, *traffic)
	if len(entries) == 0 {
		fs.Usage()
		return 2
	}

	var failures []string
	if *trials > 1 {
		for _, e := range entries {
			rep, err := experiments.Replicate(e, *seed, *trials, *parallel)
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s: %v", e.Name, err))
				continue
			}
			fmt.Fprintln(stdout, rep.Table())
		}
	} else {
		results, _ := experiments.RunEntries(entries, *seed, *parallel)
		for _, r := range results {
			if r.Err != nil {
				failures = append(failures, fmt.Sprintf("%s: %v", r.Name, r.Err))
				continue
			}
			fmt.Fprintln(stdout, r.Output)
		}
	}
	for _, f := range failures {
		fmt.Fprintf(stderr, "gridbench: %s\n", f)
	}
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "gridbench: %d of %d experiments failed\n", len(failures), len(entries))
		return 1
	}
	return 0
}

// selectEntries filters the suite registry down to the flag selection,
// preserving registry (historical -all) order. The fault-tolerance,
// planet-scale and traffic sweeps are opt-in only: -all keeps printing
// exactly what it always has, so its output stays byte-comparable
// across releases.
func selectEntries(all bool, fig, table int, ablations, extensions, faults, scale, traffic bool) []experiments.SuiteEntry {
	var out []experiments.SuiteEntry
	for _, e := range experiments.Suite() {
		keep := all
		switch e.Group {
		case experiments.GroupFigure3:
			keep = keep || fig == 3
		case experiments.GroupFigure4:
			keep = keep || fig == 4
		case experiments.GroupTable1:
			keep = keep || table == 1
		case experiments.GroupAblations:
			keep = keep || ablations
		case experiments.GroupExtensions:
			keep = keep || extensions
		case experiments.GroupFaults:
			keep = faults
		case experiments.GroupScale:
			keep = scale
		case experiments.GroupTraffic:
			keep = traffic
		}
		if keep {
			out = append(out, e)
		}
	}
	return out
}

// emitCSV writes the selected artifact's structured rows as CSV.
func emitCSV(fig, table int, faults, scale, traffic bool, seed int64, workers int, out io.Writer) error {
	w := csv.NewWriter(out)
	defer w.Flush()
	switch {
	case fig == 3:
		rows, _, err := experiments.Figure3(seed, workers)
		if err != nil {
			return err
		}
		if err := w.Write([]string{"size_mb", "ftp_sec", "gridftp_sec"}); err != nil {
			return err
		}
		for _, r := range rows {
			if err := w.Write([]string{
				strconv.FormatInt(r.SizeMB, 10),
				strconv.FormatFloat(r.FTPSeconds, 'f', 3, 64),
				strconv.FormatFloat(r.GridFTPSeconds, 'f', 3, 64),
			}); err != nil {
				return err
			}
		}
	case fig == 4:
		series, _, err := experiments.Figure4(seed, workers)
		if err != nil {
			return err
		}
		if err := w.Write([]string{"streams", "size_mb", "sec"}); err != nil {
			return err
		}
		for _, s := range series {
			for _, size := range workload.PaperFileSizesMB {
				if err := w.Write([]string{
					strconv.Itoa(s.Streams),
					strconv.FormatInt(size, 10),
					strconv.FormatFloat(s.SecondsBySizeMB[size], 'f', 3, 64),
				}); err != nil {
					return err
				}
			}
		}
	case table == 1:
		res, _, err := experiments.Table1(seed, workers)
		if err != nil {
			return err
		}
		if err := w.Write([]string{"host", "bw_pct", "cpu_idle_pct", "io_idle_pct", "score", "transfer_sec"}); err != nil {
			return err
		}
		for _, c := range res.Candidates {
			if err := w.Write([]string{
				c.Host,
				strconv.FormatFloat(c.BWPercent, 'f', 2, 64),
				strconv.FormatFloat(c.CPUIdle, 'f', 2, 64),
				strconv.FormatFloat(c.IOIdle, 'f', 2, 64),
				strconv.FormatFloat(c.Score, 'f', 2, 64),
				strconv.FormatFloat(c.TransferSeconds, 'f', 2, 64),
			}); err != nil {
				return err
			}
		}
	case faults:
		rows, _, err := experiments.ExtensionFaults(seed, workers)
		if err != nil {
			return err
		}
		if err := w.Write([]string{"intensity", "policy", "completed", "failed", "mean_sec", "attempts"}); err != nil {
			return err
		}
		for _, r := range rows {
			if err := w.Write([]string{
				strconv.Itoa(r.Intensity),
				r.Policy,
				strconv.Itoa(r.Completed),
				strconv.Itoa(r.Failed),
				strconv.FormatFloat(r.MeanSeconds, 'f', 3, 64),
				strconv.Itoa(r.Attempts),
			}); err != nil {
				return err
			}
		}
	case scale:
		rows, _, err := experiments.ExtensionPlanetScale(seed, workers)
		if err != nil {
			return err
		}
		if err := w.Write([]string{
			"grid", "sites", "hosts", "regions", "files", "queries", "flows",
			"tree_builds", "pair_dijkstras", "dijkstra_savings", "regions_consulted",
			"hosts_scanned", "max_single_rank", "mean_xfer_sec",
			"realloc_events", "realloc_rounds", "flows_scanned",
			"comps_dirtied", "max_comp_flows", "max_round_flows",
		}); err != nil {
			return err
		}
		for _, r := range rows {
			if err := w.Write([]string{
				r.Label,
				strconv.Itoa(r.Sites),
				strconv.Itoa(r.Hosts),
				strconv.Itoa(r.Regions),
				strconv.Itoa(r.Files),
				strconv.Itoa(r.Queries),
				strconv.Itoa(r.Flows),
				strconv.FormatUint(r.TreeBuilds, 10),
				strconv.FormatUint(r.PathBuilds, 10),
				strconv.FormatFloat(r.DijkstraSavings(), 'f', 1, 64),
				strconv.FormatUint(r.RegionsConsulted, 10),
				strconv.FormatUint(r.HostsScanned, 10),
				strconv.Itoa(r.MaxSingleRank),
				strconv.FormatFloat(r.MeanTransferSec, 'f', 3, 64),
				strconv.FormatUint(r.ReallocEvents, 10),
				strconv.FormatUint(r.ReallocRounds, 10),
				strconv.FormatUint(r.FlowsScanned, 10),
				strconv.FormatUint(r.ComponentsDirtied, 10),
				strconv.Itoa(r.MaxComponentFlows),
				strconv.Itoa(r.MaxRoundFlows),
			}); err != nil {
				return err
			}
		}
	case traffic:
		rows, _, err := experiments.ExtensionTraffic(seed, workers)
		if err != nil {
			return err
		}
		if err := w.Write([]string{
			"world", "sites", "hosts", "rate_per_min", "policy", "fault_intensity",
			"requests", "completed", "failed", "local_hits", "attempts",
			"p50_sec", "p95_sec", "p99_sec", "goodput_mbps", "site_skew",
			"replications", "removals",
		}); err != nil {
			return err
		}
		for _, r := range rows {
			if err := w.Write([]string{
				r.Label,
				strconv.Itoa(r.Sites),
				strconv.Itoa(r.Hosts),
				strconv.FormatFloat(r.RatePerMinute, 'f', 0, 64),
				r.Policy,
				strconv.Itoa(r.Intensity),
				strconv.Itoa(r.Requests),
				strconv.Itoa(r.Completed),
				strconv.Itoa(r.Failed),
				strconv.Itoa(r.LocalHits),
				strconv.Itoa(r.Attempts),
				strconv.FormatFloat(r.P50, 'f', 3, 64),
				strconv.FormatFloat(r.P95, 'f', 3, 64),
				strconv.FormatFloat(r.P99, 'f', 3, 64),
				strconv.FormatFloat(r.GoodputMbps, 'f', 3, 64),
				strconv.FormatFloat(r.SiteSkew, 'f', 3, 64),
				strconv.Itoa(r.Replications),
				strconv.Itoa(r.Removals),
			}); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("-csv needs -fig 3, -fig 4, -table 1, -faults, -scale or -traffic")
	}
	return nil
}
