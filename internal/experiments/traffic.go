package experiments

import (
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/topo"
	"github.com/hpclab/datagrid/internal/traffic"
)

// TrafficResult is one grid point of the traffic-plane sweep: a world
// size, an offered request intensity, a placement policy and a fault
// level, reduced to the request plane's streaming statistics (the
// embedded traffic.Report).
type TrafficResult struct {
	// Label names the topology tier; Sites and Hosts describe it.
	Label string
	Sites int
	Hosts int
	// RatePerMinute is the per-region offered request rate.
	RatePerMinute float64
	// Policy names the placement policy ("static" or "popularity");
	// Intensity is the fault-plan scale (0 = fault-free).
	Policy    string
	Intensity int
	traffic.Report
}

// Submitted is how many requests actually went through simxfer.Submit.
func (r TrafficResult) Submitted() int { return r.Requests - r.LocalHits }

// trafficWorld is one topology tier of the sweep. Its spec declares the
// world and its load; each point adds the seed, the policy, the fault
// intensity and the request mix every tier shares.
type trafficWorld struct {
	label string
	// tier derives the world's seed from the experiment seed: every
	// policy and fault level of one tier replays the identical arrival
	// stream, so row differences come from the policy and faults alone.
	tier int64
	spec traffic.Spec
}

// metroTraffic is small enough to sweep the full policy x fault grid.
// Its transfers keep the un-tuned 64 KiB TCP window, right for the metro
// tier's short RTTs.
var metroTraffic = trafficWorld{"metro-20", 1, traffic.Spec{
	Topology:      topo.Spec{Regions: 4, SitesPerRegion: 5, ClustersPerSite: 1, HostsPerCluster: 5},
	Files:         200,
	Replicas:      2,
	FileBytes:     64 << 20,
	RatePerMinute: 150,
	Horizon:       2 * time.Hour,
	Epoch:         10 * time.Minute,
	SizesMB:       []int64{1, 2, 4},
	Streams:       2,
}}

// planetTraffic is the megarow: the 200-site, 10k-host world from the
// planet-scale sweep, run long enough that one run pushes over a million
// requests through the unified transfer API. The rate is deliberately
// moderate — request latency on this world is dominated by WAN round
// trips, so transfers live for seconds and the offered rate directly sets
// the concurrent flow population the allocator must re-waterfill on
// every event; a long horizon at sustainable concurrency is dramatically
// cheaper than a short flood (cost per event scales with component
// size), and is also the honest open-loop regime — a flood pushes the
// open loop past capacity and measures queueing collapse, not the grid.
// Planetary RTTs need a tuned TCP window, or the window/RTT bound
// dominates every transfer.
var planetTraffic = trafficWorld{"planet-200", 2, traffic.Spec{
	Topology:       topo.Spec{Regions: 10, SitesPerRegion: 20, ClustersPerSite: 2, HostsPerCluster: 25},
	Files:          2000,
	Replicas:       4,
	FileBytes:      64 << 20,
	RatePerMinute:  60,
	Horizon:        1700 * time.Minute,
	Epoch:          30 * time.Minute,
	SizesMB:        []int64{1, 2},
	Streams:        1,
	TCPBufferBytes: 1 << 20,
}}

// trafficPoint is one grid point of the traffic sweep; its run adds the
// request mix every tier shares.
type trafficPoint struct {
	w         trafficWorld
	pol       traffic.PolicyKind
	intensity int
}

// String names the point in a failing point's error.
func (p trafficPoint) String() string {
	return fmt.Sprintf("%s/%v/i%d", p.w.label, p.pol, p.intensity)
}

// ExtensionTraffic is the traffic-plane sweep: topology size x request
// intensity x placement policy x fault level. The metro tier runs the
// full static-vs-popularity grid across fault levels; the planet tier
// is a single popularity run that drives over a million requests
// through simxfer.Submit on the 200-site world. The sweep asserts its
// own headline claim — under at least one non-zero fault intensity the
// popularity policy must beat the static baseline on p99 latency —
// so a regression that silences the control loop fails the experiment
// rather than quietly shipping a weaker table.
func ExtensionTraffic(seed int64, workers int) ([]TrafficResult, string, error) {
	var points []trafficPoint
	for _, intensity := range []int{0, 2} {
		for _, pol := range []traffic.PolicyKind{traffic.PolicyNone, traffic.PolicyPopularity} {
			points = append(points, trafficPoint{metroTraffic, pol, intensity})
		}
	}
	points = append(points, trafficPoint{planetTraffic, traffic.PolicyPopularity, 1})
	out, err := sweep(workers, "traffic plane", points, func(p trafficPoint) (TrafficResult, error) {
		s := p.w.spec
		s.Seed = seed + p.w.tier*104729
		s.Policy = p.pol
		s.FaultIntensity = p.intensity
		// The request mix every tier shares: a diurnal Zipf flood over
		// hot, warm and cold popularity classes, failover armed.
		s.Failover = true
		s.DispatchInterval = 10 * time.Second
		s.HotFiles, s.WarmFiles = 0.05, 0.25
		s.HotShare, s.WarmShare = 0.7, 0.2
		s.ZipfS = 1.4
		s.DiurnalAmplitude, s.DiurnalPeriod = 0.4, 4*time.Hour
		rep, err := traffic.Run(s, 1)
		if err != nil {
			return TrafficResult{}, err
		}
		name := "static"
		if p.pol == traffic.PolicyPopularity {
			name = "popularity"
		}
		return TrafficResult{
			Label:         p.w.label,
			Sites:         s.Topology.Sites(),
			Hosts:         s.Topology.Hosts(),
			RatePerMinute: s.RatePerMinute,
			Policy:        name,
			Intensity:     p.intensity,
			Report:        *rep,
		}, nil
	})
	if err != nil {
		return nil, "", err
	}

	// The sweep's own acceptance checks.
	healed := false
	var megaSubmitted int
	for _, r := range out {
		if r.Label == "planet-200" {
			megaSubmitted = r.Submitted()
		}
		if r.Intensity == 0 || r.Policy != "popularity" {
			continue
		}
		for _, s := range out {
			if s.Label == r.Label && s.Intensity == r.Intensity && s.Policy == "static" && r.P99 < s.P99 {
				healed = true
			}
		}
	}
	if !healed {
		return nil, "", fmt.Errorf("experiments: dynamic replication never beat the static baseline on p99 under faults")
	}
	if megaSubmitted < 1_000_000 {
		return nil, "", fmt.Errorf("experiments: planet tier submitted %d transfers, want >= 1M", megaSubmitted)
	}

	return out, trafficColumns.table(
		"Extension: traffic plane (Zipf request flood x dynamic replication; latencies in seconds)", out), nil
}

// trafficColumns are the traffic plane's columns.
var trafficColumns = columns[TrafficResult]{
	key: func(r TrafficResult) string { return fmt.Sprintf("traffic/%s/%s/i%d", r.Label, r.Policy, r.Intensity) },
	cols: []column[TrafficResult]{
		{"world", "%s", "world", "%s", false, func(r TrafficResult) any { return r.Label }},
		{"", "", "sites", "%d", false, func(r TrafficResult) any { return r.Sites }},
		{"", "", "hosts", "%d", false, func(r TrafficResult) any { return r.Hosts }},
		{"rate/min", "%.0f", "rate_per_min", "%.0f", false, func(r TrafficResult) any { return r.RatePerMinute }},
		{"policy", "%s", "policy", "%s", false, func(r TrafficResult) any { return r.Policy }},
		{"faults", "%d", "fault_intensity", "%d", false, func(r TrafficResult) any { return r.Intensity }},
		{"requests", "%d", "requests", "%d", true, func(r TrafficResult) any { return r.Requests }},
		{"ok", "%d", "completed", "%d", true, func(r TrafficResult) any { return r.Completed }},
		{"fail", "%d", "failed", "%d", true, func(r TrafficResult) any { return r.Failed }},
		{"local", "%d", "local_hits", "%d", false, func(r TrafficResult) any { return r.LocalHits }},
		{"", "", "attempts", "%d", false, func(r TrafficResult) any { return r.Attempts }},
		{"p50", "%.2f", "p50_sec", "%.3f", true, func(r TrafficResult) any { return r.P50 }},
		{"p95", "%.2f", "p95_sec", "%.3f", true, func(r TrafficResult) any { return r.P95 }},
		{"p99", "%.2f", "p99_sec", "%.3f", true, func(r TrafficResult) any { return r.P99 }},
		{"goodput Mb/s", "%.1f", "goodput_mbps", "%.3f", true, func(r TrafficResult) any { return r.GoodputMbps }},
		{"skew", "%.2f", "site_skew", "%.3f", true, func(r TrafficResult) any { return r.SiteSkew }},
		{"repl", "%d", "replications", "%d", true, func(r TrafficResult) any { return r.Replications }},
		{"rm", "%d", "removals", "%d", false, func(r TrafficResult) any { return r.Removals }},
	},
}
