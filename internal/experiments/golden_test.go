package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateMetrics = flag.Bool("update", false, "rewrite the testdata/*_metrics_seed42.txt goldens from this tree")

// TestSuiteMetricsGolden pins every suite entry's metrics at seed 42 but
// the traffic plane's — names, order and values — one line per metric,
// "entry name value", with the value in strconv's shortest 'g' form.
// These are exactly the lines gridperf's paper-suite digest hashes, and
// -trials aggregates by these names, so a refactor that reorders,
// renames or moves one fails here. TestTrafficMetricsGolden pins the
// traffic plane the same way.
func TestSuiteMetricsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every suite entry but the traffic plane")
	}
	var entries []SuiteEntry
	for _, e := range Suite() {
		if e.Group != GroupTraffic {
			entries = append(entries, e)
		}
	}
	checkMetricsGolden(t, entries, "suite_metrics_seed42.txt")
}

// TestTrafficMetricsGolden pins the traffic plane's metrics at seed 42 at
// full precision (gridbench's -traffic table and CSV pins hold them
// rounded to their printed digits). The plane ranks once per request, so
// a change on the selection path that reorders a candidate moves a line
// here. About half a minute on two CPUs.
func TestTrafficMetricsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traffic plane")
	}
	var entries []SuiteEntry
	for _, e := range Suite() {
		if e.Group == GroupTraffic {
			entries = append(entries, e)
		}
	}
	checkMetricsGolden(t, entries, "traffic_metrics_seed42.txt")
}

// checkMetricsGolden runs entries at seed 42 and compares their metric
// lines with testdata/name, or rewrites it under -update.
func checkMetricsGolden(t *testing.T, entries []SuiteEntry, name string) {
	t.Helper()
	results, err := RunEntries(entries, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, r := range results {
		for _, m := range r.Metrics {
			fmt.Fprintf(&got, "%s %s %s\n", r.Name, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64))
		}
	}
	path := filepath.Join("testdata", name)
	if *updateMetrics {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("metric line %d:\n got  %q\n want %q\n(go test -run %s -update rewrites %s, for a reviewed change only)",
				i+1, g, w, t.Name(), path)
		}
	}
}
