package experiments

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/hpclab/datagrid/internal/traffic"
)

// TestArtifactColumns renders every -csv artifact's column list over
// hand-made rows, no simulation, and pins the CSV each entry writes and
// the metric lines it reports, names and order. It is the only pin of the
// traffic plane's metric names: TestSuiteMetricsGolden skips that entry,
// and no gridbench golden carries metric lines.
func TestArtifactColumns(t *testing.T) {
	fig3 := []Figure3Row{
		{SizeMB: 256, FTPSeconds: 10.5, GridFTPSeconds: 4.25},
		{SizeMB: 512, FTPSeconds: 21, GridFTPSeconds: 8.5},
	}
	// Stream counts 0 and 4, each over the four paper sizes.
	var fig4 []Figure4Point
	for i, sec := range []float64{10.5, 21, 42, 84, 3.25, 6.5, 13, 26.125} {
		fig4 = append(fig4, Figure4Point{Streams: 4 * (i / 4), SizeMB: 256 << (i % 4), Seconds: sec})
	}
	table1 := Table1Result{
		Candidates: []Table1Candidate{
			{Host: "alpha1", Local: true, BWPercent: 100, CPUIdle: 87.5, IOIdle: 90.25, Score: 97.4, TransferSeconds: 7.75},
			{Host: "hit0", BWPercent: 40, CPUIdle: 50, IOIdle: 60, Score: 43, TransferSeconds: 120.5},
		},
		Spearman: -1,
	}
	cases := []struct {
		entry   string
		records [][]string
		metrics []Metric
		csv     string
		lines   string
	}{
		{
			entry:   "figure 3",
			records: figure3Columns.records(fig3),
			metrics: figure3Columns.metrics(fig3),
			csv: `size_mb,ftp_sec,gridftp_sec
256,10.500,4.250
512,21.000,8.500
`,
			lines: `fig3/256MB/ftp_sec 10.5
fig3/256MB/gridftp_sec 4.25
fig3/512MB/ftp_sec 21
fig3/512MB/gridftp_sec 8.5
`,
		},
		{
			entry:   "figure 4",
			records: figure4Columns.records(fig4),
			metrics: figure4Metrics(fig4),
			csv: `streams,size_mb,sec
0,256,10.500
0,512,21.000
0,1024,42.000
0,2048,84.000
4,256,3.250
4,512,6.500
4,1024,13.000
4,2048,26.125
`,
			lines: `fig4/streams=0/256MB_sec 10.5
fig4/streams=0/512MB_sec 21
fig4/streams=0/1024MB_sec 42
fig4/streams=0/2048MB_sec 84
fig4/streams=4/256MB_sec 3.25
fig4/streams=4/512MB_sec 6.5
fig4/streams=4/1024MB_sec 13
fig4/streams=4/2048MB_sec 26.125
`,
		},
		{
			entry:   "table 1",
			records: table1Columns.records(table1.Candidates),
			metrics: table1Metrics(table1),
			csv: `host,bw_pct,cpu_idle_pct,io_idle_pct,score,transfer_sec
alpha1,100.00,87.50,90.25,97.40,7.75
hit0,40.00,50.00,60.00,43.00,120.50
`,
			lines: `table1/alpha1/score 97.4
table1/alpha1/transfer_sec 7.75
table1/hit0/score 43
table1/hit0/transfer_sec 120.5
table1/spearman -1
`,
		},
		{
			entry:   "fault tolerance",
			records: faultsColumns.records(faultRows),
			metrics: faultsColumns.metrics(faultRows),
			csv: `intensity,policy,completed,failed,mean_sec,attempts
0,no-retry,8,0,12.500,8
2,failover-reselect,7,1,30.125,11
`,
			lines: `faults/i0/no-retry/completed 8
faults/i0/no-retry/mean_sec 12.5
faults/i0/no-retry/attempts 8
faults/i2/failover-reselect/completed 7
faults/i2/failover-reselect/mean_sec 30.125
faults/i2/failover-reselect/attempts 11
`,
		},
		{
			entry:   "planet scale",
			records: planetScaleColumns.records([]PlanetScaleResult{planetRow}),
			metrics: planetScaleColumns.metrics([]PlanetScaleResult{planetRow}),
			csv: `grid,sites,hosts,regions,files,queries,flows,tree_builds,pair_dijkstras,dijkstra_savings,regions_consulted,hosts_scanned,max_single_rank,mean_xfer_sec,realloc_events,realloc_rounds,flows_scanned,comps_dirtied,max_comp_flows,max_round_flows
20-site,20,400,4,10000,200,24,4,30,7.5,250,700,3,41.500,100,12,345,60,9,7
`,
			lines: `planetscale/20-site/tree_builds 4
planetscale/20-site/pair_dijkstras 30
planetscale/20-site/dijkstra_savings 7.5
planetscale/20-site/max_single_rank 3
planetscale/20-site/mean_xfer_sec 41.5
planetscale/20-site/realloc_events 100
planetscale/20-site/realloc_rounds 12
planetscale/20-site/flows_scanned 345
planetscale/20-site/comps_dirtied 60
planetscale/20-site/max_comp_flows 9
planetscale/20-site/max_round_flows 7
`,
		},
		{
			entry:   "traffic plane",
			records: trafficColumns.records(trafficRows),
			metrics: trafficColumns.metrics(trafficRows),
			csv: `world,sites,hosts,rate_per_min,policy,fault_intensity,requests,completed,failed,local_hits,attempts,p50_sec,p95_sec,p99_sec,goodput_mbps,site_skew,replications,removals
metro-20,20,100,150,static,0,72380,71005,0,1375,71100,3.750,12.500,13.875,184.625,6.950,0,0
planet-200,200,10000,60,popularity,1,1019163,1018257,34,872,1018400,0.650,9.300,13.600,119.800,7.250,315,12
`,
			lines: `traffic/metro-20/static/i0/requests 72380
traffic/metro-20/static/i0/completed 71005
traffic/metro-20/static/i0/failed 0
traffic/metro-20/static/i0/p50_sec 3.75
traffic/metro-20/static/i0/p95_sec 12.5
traffic/metro-20/static/i0/p99_sec 13.875
traffic/metro-20/static/i0/goodput_mbps 184.625
traffic/metro-20/static/i0/site_skew 6.95
traffic/metro-20/static/i0/replications 0
traffic/planet-200/popularity/i1/requests 1.019163e+06
traffic/planet-200/popularity/i1/completed 1.018257e+06
traffic/planet-200/popularity/i1/failed 34
traffic/planet-200/popularity/i1/p50_sec 0.65
traffic/planet-200/popularity/i1/p95_sec 9.3
traffic/planet-200/popularity/i1/p99_sec 13.6
traffic/planet-200/popularity/i1/goodput_mbps 119.8
traffic/planet-200/popularity/i1/site_skew 7.25
traffic/planet-200/popularity/i1/replications 315
`,
		},
	}
	withCSV := map[string]bool{}
	for _, e := range Suite() {
		if e.CSV != nil {
			withCSV[e.Name] = true
		}
	}
	for _, c := range cases {
		t.Run(c.entry, func(t *testing.T) {
			if !withCSV[c.entry] {
				t.Errorf("suite entry %q has no CSV form", c.entry)
			}
			delete(withCSV, c.entry)
			var out strings.Builder
			if err := csv.NewWriter(&out).WriteAll(c.records); err != nil {
				t.Fatal(err)
			}
			if out.String() != c.csv {
				t.Errorf("CSV:\n%s\nwant:\n%s", out.String(), c.csv)
			}
			var lines strings.Builder
			for _, m := range c.metrics {
				fmt.Fprintf(&lines, "%s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64))
			}
			if lines.String() != c.lines {
				t.Errorf("metric lines:\n%s\nwant:\n%s", lines.String(), c.lines)
			}
		})
	}
	if len(withCSV) != 0 {
		t.Errorf("entries with a CSV form this test does not pin: %v", withCSV)
	}
}

// TestArtifactTables pins the text tables the three sweeps' column lists
// render, each line's trailing padding aside.
func TestArtifactTables(t *testing.T) {
	for _, c := range []struct {
		name, got, want string
	}{
		{"traffic plane", trafficColumns.table("traffic", trafficRows), `traffic
world       rate/min  policy      faults  requests  ok       fail  local  p50   p95    p99    goodput Mb/s  skew  repl  rm
--------------------------------------------------------------------------------------------------------------------------
metro-20    150       static      0       72380     71005    0     1375   3.75  12.50  13.88  184.6         6.95  0     0
planet-200  60        popularity  1       1019163   1018257  34    872    0.65  9.30   13.60  119.8         7.25  315   12
`},
		{"fault tolerance", faultsColumns.table("faults", faultRows), `faults
intensity  policy             completed  failed  mean time (s)  attempts
------------------------------------------------------------------------
0          no-retry           8/8        0       12.50          8
2          failover-reselect  7/8        1       30.12          11
`},
		{"planet scale", planetScaleColumns.table("scale", []PlanetScaleResult{planetRow}), `scale
grid     sites  hosts  files  queries  flows  tree builds  pair dijkstras  savings  hosts/rank max  mean xfer (s)
-----------------------------------------------------------------------------------------------------------------
20-site  20     400    10000  200      24     4            30              7.5x     3               41.50
`},
	} {
		var got []string
		for _, line := range strings.Split(c.got, "\n") {
			got = append(got, strings.TrimRight(line, " "))
		}
		if strings.Join(got, "\n") != c.want {
			t.Errorf("%s table:\n%q\nwant:\n%q", c.name, c.got, c.want)
		}
	}
}

var faultRows = []FaultsResult{
	{Intensity: 0, Policy: "no-retry", Completed: 8, MeanSeconds: 12.5, Attempts: 8},
	{Intensity: 2, Policy: "failover-reselect", Completed: 7, Failed: 1, MeanSeconds: 30.125, Attempts: 11},
}

var planetRow = PlanetScaleResult{
	Label: "20-site", Sites: 20, Hosts: 400, Regions: 4, Files: 10_000, Queries: 200, Flows: 24,
	TreeBuilds: 4, PathBuilds: 30, RegionsConsulted: 250, HostsScanned: 700, MaxSingleRank: 3,
	MeanTransferSec: 41.5, ReallocEvents: 100, ReallocRounds: 12, FlowsScanned: 345,
	ComponentsDirtied: 60, MaxComponentFlows: 9, MaxRoundFlows: 7,
}

var trafficRows = []TrafficResult{
	{Label: "metro-20", Sites: 20, Hosts: 100, RatePerMinute: 150, Policy: "static", Intensity: 0,
		Report: traffic.Report{Requests: 72380, Completed: 71005, LocalHits: 1375, Attempts: 71100,
			P50: 3.75, P95: 12.5, P99: 13.875, GoodputMbps: 184.625, SiteSkew: 6.95}},
	{Label: "planet-200", Sites: 200, Hosts: 10000, RatePerMinute: 60, Policy: "popularity", Intensity: 1,
		Report: traffic.Report{Requests: 1019163, Completed: 1018257, Failed: 34, LocalHits: 872, Attempts: 1018400,
			P50: 0.65, P95: 9.3, P99: 13.6, GoodputMbps: 119.8, SiteSkew: 7.25, Replications: 315, Removals: 12}},
}
