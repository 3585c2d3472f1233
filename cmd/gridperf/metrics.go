package main

import (
	"encoding/json"
	"strings"
)

// metricDef names one metric. Bound is the share of the earlier median by
// which a later one may be worse before that counts as a regression;
// per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// hostMetrics are the end-to-end metrics every workload produces: what the
// simulator costs the host that runs it. They are BENCHMARK.json's
// end_to_end list.
//
// The bounds are what ten runs at ten seeds on a shared two-core VM
// support, not what one would like: the same metro-traffic run took 7.3 to
// 10.3 s of host time within ten minutes, and paper-suite's allocations
// move 2 to 3 % with its seeds (README.md has the tables). Allocation
// counts are the sharp gate; the host's clock is the blunt one.
var hostMetrics = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.08},
	{"alloc_kb_per_op", "KiB", "lower", 0.12},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// simMetrics are the modelled grid's results; sim_s is a second of virtual
// time, never of the host's. Only the
// traffic workloads produce them. With the seed fixed they repeat exactly,
// so gridperf itself holds them to a bound of zero; BENCHMARK.json, whose
// end-to-end metrics must exist on every workload and never read zero,
// carries them as the per-layer rows traffic.<name>.
var simMetrics = []metricDef{
	{"fail_share", "share", "lower", 0},
	{"sim_p50_s", "sim_s", "lower", 0},
	{"sim_p99_s", "sim_s", "lower", 0},
	{"sim_goodput_mbps", "Mb/s", "higher", 0},
}

// endToEnd is every end-to-end metric gridperf itself prints and compares.
var endToEnd = append(append([]metricDef(nil), hostMetrics...), simMetrics...)

// layerMetrics is every per-layer metric of the traced run, by
// <layer>.<metric>. A layer a workload never enters reports 0. Every _s
// metric is self time: the spans' duration minus what their child spans
// cover. The cpu_share rows, with runtime.gc_share and other_share, sum to 1.
var layerMetrics = layerDefs(
	"simulation.events_fired count", "simulation.rununtil_self_s s", "simulation.wall_us_per_event us", "simulation.cpu_share share",
	"netsim.realloc_events count", "netsim.realloc_rounds count", "netsim.flows_scanned count", "netsim.comps_dirtied count",
	"netsim.max_component_flows count", "netsim.flows_scanned_per_event ratio", "netsim.cpu_share share",
	"netsim.route_queries count", "netsim.tree_builds count", "netsim.path_builds count", "netsim.tree_builds_per_query ratio",
	"simxfer.submit_s s", "simxfer.submits count", "simxfer.attempts count", "simxfer.attempts_per_submit ratio", "simxfer.cpu_share share",
	"core.rank_s s", "core.rank_p50_us us", "core.rank_p99_us us", "core.selections count", "core.hosts_scanned count",
	"core.hosts_scanned_per_selection ratio", "core.cpu_share share",
	"replica.place_s s", "replica.register_s s", "replica.unregister_s s", "replica.writes count", "replica.cpu_share share",
	"gridstate.publish_s s", "gridstate.publishes count", "gridstate.hosts_built count", "gridstate.cpu_share share",
	"placement.epoch_s s", "placement.access_s s", "placement.replications count", "placement.removals count", "placement.cpu_share share",
	"traffic.cpu_share share", "traffic.fail_share share", "traffic.sim_p50_s sim_s", "traffic.sim_p99_s sim_s", "traffic.sim_goodput_mbps Mb/s +",
	"replay.requests count +", "replay.wall_ratio ratio",
	"topo.generate_s s", "topo.build_s s", "topo.cpu_share share", "cluster.cpu_share share",
	"faults.install_s s", "faults.episodes count", "faults.cpu_share share",
	"workload.arrivals count", "workload.cpu_share share", "metrics.cpu_share share",
	"nws.cpu_share share", "mds.cpu_share share", "sysstat.cpu_share share", "info.cpu_share share",
	"experiments.figure3_s s", "experiments.figure4_s s", "experiments.table1_s s", "experiments.ablations_s s",
	"experiments.extensions_s s", "experiments.faults_s s", "experiments.cpu_share share",
	"runner.busy_share share +", "runner.cpu_share share",
	"trace.overhead_share share", "runtime.gc_share share", "other_share share",
)

// layerDefs reads "name unit" rows; a trailing + marks higher as better.
func layerDefs(rows ...string) []metricDef {
	defs := make([]metricDef, len(rows))
	for i, row := range rows {
		f := strings.Fields(row)
		defs[i] = metricDef{Name: f[0], Unit: f[1], Better: "lower"}
		if len(f) == 3 {
			defs[i].Better = "higher"
		}
	}
	return defs
}

// spanMetric maps a span name to the per-layer metric its self time feeds.
var spanMetric = map[string]string{
	"simulation.rununtil": "simulation.rununtil_self_s",
	"simxfer.submit":      "simxfer.submit_s",
	"core.rank":           "core.rank_s",
	"replica.place":       "replica.place_s",
	"replica.register":    "replica.register_s",
	"replica.unregister":  "replica.unregister_s",
	"gridstate.publish":   "gridstate.publish_s",
	"placement.epoch":     "placement.epoch_s",
	"placement.access":    "placement.access_s",
	"topo.generate":       "topo.generate_s",
	"topo.build":          "topo.build_s",
	"faults.install":      "faults.install_s",
}

// runSeconds is how long one driver run measures: two timed sections of
// eight to ten seconds, or three where the host is quick.
const runSeconds = 16

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []metricDef     `json:"end_to_end"`
	PerLayer   []layerRow      `json:"per_layer"`
}

// layerRow is a per-layer metric as BENCHMARK.json lists it: no bound.
type layerRow struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the file
// and the program cannot name different metrics.
func benchmarkJSON() ([]byte, error) {
	b := benchmarkFile{
		Command:    []string{"go", "run", "./cmd/gridperf"},
		Paths:      []string{"cmd/gridperf"},
		RunSeconds: runSeconds,
		EndToEnd:   hostMetrics,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, benchWorkload{w.name, w.why})
	}
	for _, m := range layerMetrics {
		b.PerLayer = append(b.PerLayer, layerRow{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
