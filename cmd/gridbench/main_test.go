package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hpclab/datagrid/internal/experiments"
	"github.com/hpclab/datagrid/internal/workload"
)

// TestEmitCSV drives -csv through run: each CSV artifact prints its
// header and one record per row, and a selection with no CSV form exits 1
// with the list of those that have one.
func TestEmitCSV(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		header string
		rows   int
	}{
		{
			name:   "fig3",
			args:   []string{"-fig", "3"},
			header: "size_mb,ftp_sec,gridftp_sec",
			rows:   len(workload.PaperFileSizesMB),
		},
		{
			name:   "fig4",
			args:   []string{"-fig", "4"},
			header: "streams,size_mb,sec",
			rows:   len(workload.PaperStreamCounts) * len(workload.PaperFileSizesMB),
		},
		{
			name:   "table1",
			args:   []string{"-table", "1"},
			header: "host,bw_pct,cpu_idle_pct,io_idle_pct,score,transfer_sec",
			rows:   4,
		},
		{name: "no selection"},
		{name: "unknown figure", args: []string{"-fig", "7"}},
		{name: "all", args: []string{"-all"}},
		{name: "ablations", args: []string{"-ablations"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-csv", "-seed", "42", "-parallel", "2"}, tc.args...)
			code := run(args, &stdout, &stderr)
			if tc.header == "" {
				want := "gridbench: -csv needs -fig 3, -fig 4, -table 1, -faults, -scale or -traffic\n"
				if code != 1 || stdout.Len() != 0 || stderr.String() != want {
					t.Fatalf("run(%v) = %d, stdout %q, stderr %q; want 1, no rows, %q", args, code, stdout.String(), stderr.String(), want)
				}
				return
			}
			if code != 0 {
				t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
			}
			lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
			if lines[0] != tc.header {
				t.Errorf("header = %q, want %q", lines[0], tc.header)
			}
			if got := len(lines) - 1; got != tc.rows {
				t.Errorf("data rows = %d, want %d", got, tc.rows)
			}
		})
	}
}

// TestOptInGroupsStayOutOfAll pins the selection contract: -all never
// picks up the opt-in sweeps (their output is not part of the pinned
// byte-identical suite), and each opt-in flag selects exactly its group.
func TestOptInGroupsStayOutOfAll(t *testing.T) {
	for _, e := range selectEntries(true, 0, 0, false, false, false, false, false) {
		if e.Group == experiments.GroupFaults || e.Group == experiments.GroupScale ||
			e.Group == experiments.GroupTraffic {
			t.Errorf("-all selected opt-in entry %q", e.Name)
		}
	}
	scale := selectEntries(false, 0, 0, false, false, false, true, false)
	if len(scale) != 1 || scale[0].Name != "planet scale" {
		t.Errorf("-scale selected %d entries, want only planet scale", len(scale))
	}
	faults := selectEntries(false, 0, 0, false, false, true, false, false)
	if len(faults) != 1 || faults[0].Name != "fault tolerance" {
		t.Errorf("-faults selected %d entries, want only fault tolerance", len(faults))
	}
	traffic := selectEntries(false, 0, 0, false, false, false, false, true)
	if len(traffic) != 1 || traffic[0].Name != "traffic plane" {
		t.Errorf("-traffic selected %d entries, want only traffic plane", len(traffic))
	}
}

func TestRunWithoutSelectionPrintsUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "Usage of gridbench") {
		t.Errorf("stderr should carry usage text, got:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout should be empty, got:\n%s", stdout.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-all", "-parallel", "0"},
		{"-all", "-trials", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// TestCSVRefusesWhatItWouldDrop: -csv prints one artifact from one
// seed, so a second selection or -trials is refused up front rather than
// silently left out of the output.
func TestCSVRefusesWhatItWouldDrop(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-csv", "-fig", "3", "-trials", "3"}, "cannot aggregate -trials"},
		{[]string{"-csv", "-fig", "3", "-table", "1"}, "select only one"},
		{[]string{"-csv", "-faults", "-all"}, "select only one"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", c.args, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("run(%v): stdout %q, stderr %q; want no rows and %q", c.args, stdout.String(), stderr.String(), c.want)
		}
	}
}

// TestParallelOutputByteIdentical is the worker pool's contract: the
// full suite's output must not depend on the worker count. It runs the
// whole evaluation twice, sequentially and on an 8-worker pool, and
// requires byte equality — with each other and with the committed
// seed-42 output, so a change that moves any published number fails
// here rather than only in the CI diff gates.
func TestParallelOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full evaluation suite twice")
	}
	want, err := os.ReadFile("testdata/all_seed42.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []string{"1", "8"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-all", "-seed", "42", "-parallel", parallel}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
		}
		if stdout.String() != string(want) {
			t.Fatalf("-all -seed 42 -parallel %s differs from testdata/all_seed42.txt", parallel)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the -csv and -trials goldens in testdata from this tree")

// TestGoldenOutputs pins the outputs the four stdout pins do not cover:
// every fast -csv artifact and the -trials aggregation at seed 42, and
// -all and -faults at a second seed, 7. The traffic CSV (half a minute)
// is diffed by CI's determinism gate.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite three times and the planet-scale sweep")
	}
	for _, c := range []struct {
		file string
		args []string
	}{
		{"fig3_seed42.csv", []string{"-seed", "42", "-csv", "-fig", "3"}},
		{"fig4_seed42.csv", []string{"-seed", "42", "-csv", "-fig", "4"}},
		{"table1_seed42.csv", []string{"-seed", "42", "-csv", "-table", "1"}},
		{"faults_seed42.csv", []string{"-seed", "42", "-csv", "-faults"}},
		{"scale_seed42.csv", []string{"-seed", "42", "-csv", "-scale"}},
		{"all_trials3_seed42.txt", []string{"-seed", "42", "-all", "-trials", "3"}},
		{"all_seed7.txt", []string{"-seed", "7", "-all"}},
		{"faults_seed7.txt", []string{"-seed", "7", "-faults"}},
	} {
		t.Run(c.file, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-parallel", "2"}, c.args...)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
			}
			path := filepath.Join("testdata", c.file)
			if *updateGolden {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if stdout.String() != string(want) {
				t.Fatalf("gridbench %v differs from %s", c.args, path)
			}
		})
	}
}
