package datagrid

import (
	"testing"

	"github.com/hpclab/datagrid/internal/experiments"
)

// BenchmarkTrafficSweep runs the traffic-plane extension — the opt-in
// `gridbench -traffic` workload (Zipf request streams through the
// dynamic-replication control loop and the unified transfer API) — and
// reports the headline quantities at the planet row: requests driven
// through simxfer.Submit, the tail latency the popularity policy held,
// goodput and per-site load skew. `make bench-traffic` records the
// output into BENCH_traffic.json.
func BenchmarkTrafficSweep(b *testing.B) {
	var rows []experiments.TrafficResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.ExtensionTraffic(benchSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	top := rows[0]
	for _, r := range rows {
		if r.Requests > top.Requests {
			top = r
		}
	}
	b.ReportMetric(float64(top.Sites), "sites")
	b.ReportMetric(float64(top.Submitted()), "submitted")
	b.ReportMetric(float64(top.Completed), "completed")
	b.ReportMetric(top.P99, "p99-sec")
	b.ReportMetric(top.GoodputMbps, "goodput-mbps")
	b.ReportMetric(top.SiteSkew, "site-skew")
	b.ReportMetric(float64(top.Replications), "replications")
}
