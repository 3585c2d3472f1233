// Command benchjson converts `go test -bench` text output into a JSON
// benchmark record so the repo keeps a machine-readable perf trajectory.
//
// It reads benchmark output on stdin, parses every "BenchmarkXxx" result
// line (including -benchmem columns and custom ReportMetric units), and
// merges the run into the JSON file named by -out: an existing run with
// the same label is replaced, anything else is preserved and new runs
// append. The benchmark text is echoed to stdout so the tool can sit at
// the end of a pipe without hiding results.
//
//	go test -run='^$' -bench='Netsim' -benchmem . ./internal/netsim |
//	    go run ./cmd/benchjson -label after-foo -out BENCH_netsim.json
//
// With -diff the tool compares instead of recording: the current run on
// stdin is checked against a committed baseline run in the -out file
// (-against selects the label; default is the last recorded run that
// contains each benchmark) and the process exits 1 when any compared
// metric regresses by more than -threshold percent. The baseline file is
// never modified in -diff mode, so CI can gate on it:
//
//	go test -run='^$' -bench='Netsim' -benchmem ./internal/netsim |
//	    go run ./cmd/benchjson -diff -against pr2-optimized \
//	        -metrics allocs/op -out BENCH_netsim.json
//
// See docs/PERFORMANCE.md for the recording/compare workflow.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name without the "Benchmark" prefix and
	// without the -GOMAXPROCS suffix where the run proves one (parse), so
	// records compare across machines.
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Metrics maps unit -> value, e.g. "ns/op", "B/op", "allocs/op" and
	// any custom b.ReportMetric units.
	Metrics map[string]float64 `json:"metrics"`
}

// Run is one labeled benchmark session.
type Run struct {
	Label      string      `json:"label"`
	GoVersion  string      `json:"go_version"`
	Note       string      `json:"note,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// File is the on-disk record: a sequence of labeled runs, oldest first.
type File struct {
	Comment string `json:"comment"`
	Runs    []Run  `json:"runs"`
}

const fileComment = "benchmark trajectory recorded by cmd/benchjson; see docs/PERFORMANCE.md"

func main() {
	out := flag.String("out", "BENCH_netsim.json", "JSON file to create or merge into (or compare against with -diff)")
	label := flag.String("label", "local", "label identifying this run (same label replaces)")
	note := flag.String("note", "", "optional free-form note stored with the run")
	diff := flag.Bool("diff", false, "compare stdin against the baseline in -out instead of recording; exit 1 on regression")
	against := flag.String("against", "", "with -diff: baseline run label (default: last recorded run containing each benchmark)")
	threshold := flag.Float64("threshold", 15, "with -diff: regression threshold in percent")
	metrics := flag.String("metrics", "ns/op,allocs/op", "with -diff: comma-separated metrics to compare")
	flag.Parse()

	benches, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}
	if *diff {
		regressions, err := compare(*out, benches, *against, *threshold, splitMetrics(*metrics))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s\n", r)
			}
			fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) beyond %.0f%% vs %s\n",
				len(regressions), *threshold, *out)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no regressions beyond %.0f%% vs %s\n", *threshold, *out)
		return
	}
	run := Run{Label: *label, GoVersion: runtime.Version(), Note: *note, Benchmarks: benches}
	if err := merge(*out, run); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: recorded %d benchmarks as %q in %s\n", len(benches), *label, *out)
}

func splitMetrics(s string) []string {
	var out []string
	for _, m := range strings.Split(s, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

// compare checks the current benchmarks against a baseline run in the
// JSON file at path and returns one description per regressed metric.
// The file is read, never written. A benchmark missing from the baseline
// is skipped (new benchmarks are not regressions); a baseline value of
// zero with a non-zero current value counts as a regression (the ratio
// is unbounded).
func compare(path string, current []Benchmark, against string, threshold float64, metrics []string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s is not valid benchjson output: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s contains no recorded runs", path)
	}
	if against != "" {
		found := false
		for _, r := range f.Runs {
			if r.Label == against {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("%s has no run labeled %q", path, against)
		}
	}
	var regressions []string
	for _, b := range current {
		base, label, ok := baselineFor(f, b.Name, against)
		if !ok {
			continue
		}
		for _, metric := range metrics {
			cur, haveCur := b.Metrics[metric]
			old, haveOld := base.Metrics[metric]
			if !haveCur || !haveOld {
				continue
			}
			if old == 0 {
				if cur > 0 {
					regressions = append(regressions, fmt.Sprintf(
						"%s %s: baseline (%s) is 0, now %g", b.Name, metric, label, cur))
				}
				continue
			}
			if pct := (cur - old) / old * 100; pct > threshold {
				regressions = append(regressions, fmt.Sprintf(
					"%s %s: %g -> %g (+%.1f%% vs %s, threshold %.0f%%)",
					b.Name, metric, old, cur, pct, label, threshold))
			}
		}
	}
	return regressions, nil
}

// baselineFor finds the baseline benchmark: from the run labeled
// `against` when set, otherwise from the newest (last) run that contains
// the benchmark.
func baselineFor(f File, name, against string) (Benchmark, string, bool) {
	for i := len(f.Runs) - 1; i >= 0; i-- {
		r := f.Runs[i]
		if against != "" && r.Label != against {
			continue
		}
		for _, b := range r.Benchmarks {
			if b.Name == name {
				return b, r.Label, true
			}
		}
		if against != "" {
			return Benchmark{}, "", false
		}
	}
	return Benchmark{}, "", false
}

// parse scans go test -bench output, echoing every line to echo and
// collecting parsed results in first-seen order; a name printed twice (a
// repeated run) keeps its last line. A result line that the JSON record
// could not hold as read — a NaN or infinite value, or bytes that are not
// UTF-8 — is an error naming the line, not a result to compare.
func parse(r io.Reader, echo io.Writer) ([]Benchmark, error) {
	var lines []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		b, ok, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d %q: %w", n, line, err)
		}
		if ok {
			lines = append(lines, b)
		}
	}
	shared := "" // the -N suffix every line ends in, if they share one
	for i, b := range lines {
		if s := procsSuffix(b.Name); i == 0 || s == shared {
			shared = s
		} else {
			shared = ""
			break
		}
	}
	var out []Benchmark
	byName := map[string]int{}
	for _, b := range lines {
		// go test appends -N to every line when GOMAXPROCS is N > 1 and
		// nothing at 1, so a suffix all lines share is it, and so is one
		// on a top-level name (a Go identifier holds no '-'). A
		// sub-benchmark's own name may end in -N: parallel-2 at one CPU.
		if s := procsSuffix(b.Name); s != "" && (s == shared || !strings.Contains(b.Name, "/")) {
			b.Name = strings.TrimSuffix(b.Name, s)
		}
		if i, seen := byName[b.Name]; seen {
			out[i] = b
			continue
		}
		byName[b.Name] = len(out)
		out = append(out, b)
	}
	return out, sc.Err()
}

// procsSuffix returns name's trailing "-N" when N > 1, the only form a
// -GOMAXPROCS suffix takes, or "".
func procsSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if n, err := strconv.Atoi(name[i+1:]); i <= 0 || err != nil || n < 2 {
		return ""
	}
	return name[i:]
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8   	     100	  12345 ns/op	  64 B/op	  2 allocs/op
//
// with any number of trailing value/unit metric pairs. The name keeps any
// -GOMAXPROCS suffix; parse decides whether to strip it. A line without a
// name, a positive iteration count or a numeric value is not a result.
func parseLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || fields[0] == "Benchmark" {
		return Benchmark{}, false, nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || iters < 1 {
		return Benchmark{}, false, nil
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0): // an overflow parses to ±Inf
			return Benchmark{}, false, fmt.Errorf("%s is not a finite value", fields[i])
		case err != nil:
			return Benchmark{}, false, nil
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false, nil
	}
	if !utf8.ValidString(line) {
		return Benchmark{}, false, errors.New("not valid UTF-8")
	}
	return b, true, nil
}

// merge loads path (if it exists), replaces the run with the same label or
// appends, and writes the file back with stable formatting.
func merge(path string, run Run) error {
	f := File{Comment: fileComment}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("existing %s is not valid benchjson output: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	f.Comment = fileComment
	replaced := false
	for i := range f.Runs {
		if f.Runs[i].Label == run.Label {
			f.Runs[i] = run
			replaced = true
			break
		}
	}
	if !replaced {
		f.Runs = append(f.Runs, run)
	}
	for _, r := range f.Runs {
		sort.Slice(r.Benchmarks, func(i, j int) bool { return r.Benchmarks[i].Name < r.Benchmarks[j].Name })
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
