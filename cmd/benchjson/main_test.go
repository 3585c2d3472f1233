package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: github.com/hpclab/datagrid
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkNetsimFlowEvents 	      20	    635469 ns/op	   32464 B/op	     263 allocs/op
BenchmarkNetsimStressLargeGrid-8 	       3	 137918883 ns/op	  306456 B/op	    2877 allocs/op
BenchmarkExtensionScale 	       1	1925312875 ns/op	        27.29 sites12-improve-pct
PASS
ok  	github.com/hpclab/datagrid	5.584s
`

func TestParse(t *testing.T) {
	var echo strings.Builder
	benches, err := parse(strings.NewReader(sample), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(echo.String(), "BenchmarkNetsimFlowEvents") {
		t.Fatal("input was not echoed")
	}
	if len(benches) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(benches))
	}
	fe := benches[0]
	if fe.Name != "NetsimFlowEvents" || fe.Iterations != 20 {
		t.Fatalf("unexpected first benchmark: %+v", fe)
	}
	if fe.Metrics["ns/op"] != 635469 || fe.Metrics["allocs/op"] != 263 {
		t.Fatalf("unexpected metrics: %v", fe.Metrics)
	}
	if benches[1].Name != "NetsimStressLargeGrid" {
		t.Fatalf("GOMAXPROCS suffix not stripped: %q", benches[1].Name)
	}
	if benches[2].Metrics["sites12-improve-pct"] != 27.29 {
		t.Fatalf("custom metric lost: %v", benches[2].Metrics)
	}
}

// TestParseProcsSuffixOnlyWhenProven parses the suite benchmark as go test
// prints it at GOMAXPROCS=1 (no -N suffix) and 2 (-2 on every line). The
// sub-benchmark's own name, parallel-<NumCPU>, ends in a number, so its
// tail is the procs suffix only when every line of the run shares it.
func TestParseProcsSuffixOnlyWhenProven(t *testing.T) {
	for _, tc := range []struct {
		cpus, transcript string
		want             []string
	}{
		{"1", `goos: linux
BenchmarkGridbenchAll/sequential         	       1	112715099989 ns/op	5640055696 B/op	37855443 allocs/op
BenchmarkGridbenchAll/parallel-1         	       1	117106995770 ns/op	5640213800 B/op	37855473 allocs/op
PASS
`, []string{"GridbenchAll/sequential", "GridbenchAll/parallel-1"}},
		{"2", `goos: linux
BenchmarkGridbenchAll/sequential-2       	       1	44698933482 ns/op	11798783696 B/op	60254525 allocs/op
BenchmarkGridbenchAll/parallel-2-2       	       1	35617112704 ns/op	11798900128 B/op	60253707 allocs/op
PASS
`, []string{"GridbenchAll/sequential", "GridbenchAll/parallel-2"}},
	} {
		benches, err := parse(strings.NewReader(tc.transcript), nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, b := range benches {
			got = append(got, b.Name)
		}
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("%s CPU: names %q, want %q", tc.cpus, got, tc.want)
		}
	}
}

func TestParseRejectsNonBenchLines(t *testing.T) {
	benches, err := parse(strings.NewReader("PASS\nok x 1s\nBenchmarkBroken abc\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 0 {
		t.Fatalf("parsed %d benchmarks from junk, want 0", len(benches))
	}
}

// TestParseRejectsNonFinite: a NaN or infinite value (an overflow reads
// as one) fails the parse with the line named, instead of passing -diff
// silently or failing the JSON write later.
func TestParseRejectsNonFinite(t *testing.T) {
	for _, v := range []string{"NaN", "+Inf", "-inf", "infinity", "1e400"} {
		line := "BenchmarkX 10 " + v + " ns/op"
		_, err := parse(strings.NewReader("PASS\n"+line+"\n"), nil)
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), line) {
			t.Fatalf("%q: err = %v, want one naming line 2", line, err)
		}
	}
}

// FuzzParse: parse never panics, and every result it returns has a name,
// positive iterations and finite metrics, and reads back unchanged from
// the file merge writes.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		benches, err := parse(strings.NewReader(text), nil)
		if err != nil {
			return
		}
		want := map[string]Benchmark{}
		for _, b := range benches {
			if b.Name == "" || b.Iterations < 1 {
				t.Fatalf("result %+v has no name or no iterations", b)
			}
			for unit, v := range b.Metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("result %s has %s = %v", b.Name, unit, v)
				}
			}
			if _, dup := want[b.Name]; dup {
				t.Fatalf("name %q returned twice", b.Name)
			}
			want[b.Name] = b
		}
		path := filepath.Join(t.TempDir(), "bench.json")
		if err := merge(path, Run{Label: "fuzz", Benchmarks: benches}); err != nil {
			t.Fatalf("merge: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var back File
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if len(back.Runs) != 1 || len(back.Runs[0].Benchmarks) != len(benches) {
			t.Fatalf("re-read %+v, want one run of %d benchmarks", back.Runs, len(benches))
		}
		for _, b := range back.Runs[0].Benchmarks {
			if w, ok := want[b.Name]; !ok || !reflect.DeepEqual(b, w) {
				t.Fatalf("re-read %+v, parsed %+v", b, w)
			}
		}
	})
}

func TestMergeReplacesSameLabel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	run1 := Run{Label: "a", GoVersion: "go0", Benchmarks: []Benchmark{
		{Name: "X", Iterations: 1, Metrics: map[string]float64{"ns/op": 100}},
	}}
	if err := merge(path, run1); err != nil {
		t.Fatal(err)
	}
	run2 := Run{Label: "b", GoVersion: "go0", Benchmarks: []Benchmark{
		{Name: "X", Iterations: 1, Metrics: map[string]float64{"ns/op": 50}},
	}}
	if err := merge(path, run2); err != nil {
		t.Fatal(err)
	}
	// Re-recording label "a" must replace in place, not append.
	run1b := run1
	run1b.Benchmarks = []Benchmark{{Name: "X", Iterations: 2, Metrics: map[string]float64{"ns/op": 90}}}
	if err := merge(path, run1b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(f.Runs))
	}
	if f.Runs[0].Label != "a" || f.Runs[0].Benchmarks[0].Metrics["ns/op"] != 90 {
		t.Fatalf("label a not replaced in place: %+v", f.Runs[0])
	}
	if f.Runs[1].Label != "b" {
		t.Fatalf("label b lost: %+v", f.Runs[1])
	}
}

func writeBaseline(t *testing.T, runs []Run) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	data, err := json.MarshalIndent(&File{Comment: fileComment, Runs: runs}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareDetectsRegression(t *testing.T) {
	path := writeBaseline(t, []Run{{
		Label: "container-1cpu",
		Benchmarks: []Benchmark{
			{Name: "SelectionThroughput", Metrics: map[string]float64{"ns/op": 1000, "allocs/op": 100}},
		},
	}})
	current := []Benchmark{
		{Name: "SelectionThroughput", Metrics: map[string]float64{"ns/op": 1100, "allocs/op": 130}},
	}
	regs, err := compare(path, current, "container-1cpu", 15, []string{"ns/op", "allocs/op"})
	if err != nil {
		t.Fatal(err)
	}
	// ns/op +10% is under the 15% threshold; allocs/op +30% is over.
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
		t.Fatalf("regressions = %v, want exactly the allocs/op one", regs)
	}
	// The baseline file must never be rewritten in diff mode.
	before, _ := os.ReadFile(path)
	if _, err := compare(path, current, "container-1cpu", 15, []string{"allocs/op"}); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(path)
	if string(before) != string(after) {
		t.Fatal("compare modified the baseline file")
	}
}

func TestCompareZeroBaselineIsRegression(t *testing.T) {
	path := writeBaseline(t, []Run{{
		Label: "base",
		Benchmarks: []Benchmark{
			{Name: "X", Metrics: map[string]float64{"allocs/op": 0}},
		},
	}})
	regs, err := compare(path, []Benchmark{{Name: "X", Metrics: map[string]float64{"allocs/op": 3}}},
		"base", 15, []string{"allocs/op"})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("zero baseline with non-zero current must regress, got %v", regs)
	}
}

func TestCompareDefaultsToNewestRunWithBenchmark(t *testing.T) {
	path := writeBaseline(t, []Run{
		{Label: "old", Benchmarks: []Benchmark{
			{Name: "A", Metrics: map[string]float64{"ns/op": 100}},
			{Name: "B", Metrics: map[string]float64{"ns/op": 100}},
		}},
		{Label: "new", Benchmarks: []Benchmark{
			{Name: "A", Metrics: map[string]float64{"ns/op": 200}},
		}},
	})
	// A compares against "new" (200 -> 210 is fine); B only exists in
	// "old" (100 -> 210 regresses). New benchmarks are skipped.
	current := []Benchmark{
		{Name: "A", Metrics: map[string]float64{"ns/op": 210}},
		{Name: "B", Metrics: map[string]float64{"ns/op": 210}},
		{Name: "C", Metrics: map[string]float64{"ns/op": 999}},
	}
	regs, err := compare(path, current, "", 15, []string{"ns/op"})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "B ns/op") {
		t.Fatalf("regressions = %v, want exactly B against the old run", regs)
	}
}

func TestCompareUnknownLabel(t *testing.T) {
	path := writeBaseline(t, []Run{{Label: "base"}})
	if _, err := compare(path, []Benchmark{{Name: "X"}}, "nosuch", 15, []string{"ns/op"}); err == nil {
		t.Fatal("unknown -against label must be an error")
	}
}
