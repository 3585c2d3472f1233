package datagrid

import (
	"strings"
	"testing"

	"github.com/hpclab/datagrid/internal/experiments"
)

// BenchmarkFaultsSweep runs the fault-tolerance extension — the opt-in
// `gridbench -faults` workload — through the worker pool and reports the
// headline quantities at the highest injected intensity: per-policy
// completion counts and mean completed-transfer time. `make bench-faults`
// records the output into BENCH_faults.json.
func BenchmarkFaultsSweep(b *testing.B) {
	var rows []experiments.FaultsResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.ExtensionFaults(benchSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	maxIntensity := 0
	for _, r := range rows {
		if r.Intensity > maxIntensity {
			maxIntensity = r.Intensity
		}
	}
	for _, r := range rows {
		if r.Intensity != maxIntensity {
			continue
		}
		tag := strings.ReplaceAll(r.Policy, "-", "")
		b.ReportMetric(float64(r.Completed), tag+"-completed")
		b.ReportMetric(r.MeanSeconds, tag+"-sec")
	}
	b.ReportMetric(float64(maxIntensity), "intensity")
}
