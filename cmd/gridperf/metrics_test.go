package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from gridperf's tables")

// BENCHMARK.json is rendered from the tables in metrics.go and layers.go;
// the committed file must be that rendering, and it must read back into the
// same tables within the driver's limits.
func TestBenchmarkJSONRoundTrip(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("../../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is not what gridperf renders; run go test ./cmd/gridperf -run RoundTrip -update")
	}

	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []map[string]string
		EndToEnd   []map[string]any `json:"end_to_end"`
		PerLayer   []map[string]any `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(got))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) || len(b.EndToEnd) != len(hostMetrics) || len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("read back %d workloads, %d end-to-end and %d per-layer metrics", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("outside the driver's limits: %d workloads, %d end-to-end, %d per-layer, %d s", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), b.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, row map[string]any, keys int) {
		n, _ := row["name"].(string)
		u, _ := row["unit"].(string)
		better, _ := row["better"].(string)
		if !name.MatchString(n) || seen[n] || !unit.MatchString(u) || better != "lower" && better != "higher" || len(row) != keys {
			t.Errorf("%s metric %v breaks the naming rules or repeats", kind, row)
		}
		seen[n] = true
	}
	setup := false
	for _, row := range b.EndToEnd {
		check("end-to-end", row, 4)
		if bound, _ := row["bound"].(float64); bound <= 0 || bound > 0.25 {
			t.Errorf("%v: bound outside (0, 0.25]", row)
		}
		setup = setup || row["name"] == "setup_s" && row["unit"] == "s" && row["better"] == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, row := range b.PerLayer {
		check("per-layer", row, 3)
	}
	for _, w := range b.Workloads {
		if !name.MatchString(w["name"]) || seen[w["name"]] || len(w["why"]) == 0 || len(w["why"]) > 200 || len(w) != 2 {
			t.Errorf("workload %v breaks the naming rules", w)
		}
		seen[w["name"]] = true
	}
}

// Every span that feeds a metric feeds one the table lists.
func TestSpanMetricsAreListed(t *testing.T) {
	listed := map[string]bool{}
	for _, d := range layerMetrics {
		listed[d.Name] = true
	}
	for span, metric := range spanMetric {
		if !listed[metric] {
			t.Errorf("span %s feeds %s, which layerMetrics does not list", span, metric)
		}
	}
}
