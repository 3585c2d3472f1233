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
//	gridbench -faults
//	gridbench -scale
//	gridbench -traffic
//	gridbench -csv -fig 3
//
// -all selects the figures, the table, the ablations and the extensions;
// the fault-tolerance (-faults), planet-scale (-scale) and traffic-plane
// (-traffic) sweeps are selected only by their own flags. -csv prints one
// artifact's rows as CSV instead of its table: -fig 3, -fig 4, -table 1,
// -faults, -scale or -traffic, alone. -seed S sets the simulation seed
// (42, the published run, by default).
//
// Experiments run concurrently on a deterministic worker pool: -parallel N
// sets the pool size (1 reproduces the historical sequential execution),
// and the output is byte-identical at every N. -trials T replicates each
// selected experiment under T independent seeds and reports each metric
// as mean ± 95% confidence interval; the published numbers remain the
// single-trial seed-42 run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"github.com/hpclab/datagrid/internal/experiments"
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

	entries := selectEntries(*all, *fig, *table, *ablations, *extensions, *faults, *scale, *traffic)
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
		if len(entries) != 1 || entries[0].CSV == nil {
			fmt.Fprintln(stderr, "gridbench: -csv needs -fig 3, -fig 4, -table 1, -faults, -scale or -traffic")
			return 1
		}
		if err := entries[0].CSV(*seed, *parallel, stdout); err != nil {
			fmt.Fprintf(stderr, "gridbench: %v\n", err)
			return 1
		}
		return 0
	}
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
