package datagrid

import (
	"testing"

	"github.com/hpclab/datagrid/internal/experiments"
)

// BenchmarkScaleSweep runs the planet-scale extension — the opt-in
// `gridbench -scale` workload (20 to 200 sites, 400 to 10k hosts, 10k-
// to million-entry catalogs) — and reports the headline quantities at
// the largest grid: Dijkstra tree builds vs the per-pair runs the old
// route cache would have paid, and the scan bound hierarchical selection
// held. `make bench-scale` records the output into BENCH_scale.json.
func BenchmarkScaleSweep(b *testing.B) {
	var rows []experiments.PlanetScaleResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.ExtensionPlanetScale(benchSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	top := rows[0]
	for _, r := range rows {
		if r.Sites > top.Sites {
			top = r
		}
	}
	b.ReportMetric(float64(top.Sites), "sites")
	b.ReportMetric(float64(top.Hosts), "hosts")
	b.ReportMetric(float64(top.TreeBuilds), "tree-builds")
	b.ReportMetric(float64(top.PathBuilds), "pair-dijkstras")
	b.ReportMetric(top.DijkstraSavings(), "dijkstra-savings-x")
	b.ReportMetric(float64(top.MaxSingleRank), "max-rank-hosts")
	b.ReportMetric(top.MeanTransferSec, "xfer-sec")
}
