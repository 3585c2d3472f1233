package experiments

import (
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/metrics"
	"github.com/hpclab/datagrid/internal/runner"
	"github.com/hpclab/datagrid/internal/topo"
	"github.com/hpclab/datagrid/internal/traffic"
)

// TrafficResult is one grid point of the traffic-plane sweep: a world
// size, an offered request intensity, a placement policy and a fault
// level, reduced to the request plane's streaming statistics.
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
	// Requests counts dispatched arrivals; Completed, Failed and
	// LocalHits partition their outcomes. Submitted is the number that
	// went through simxfer.Submit (Requests minus local hits).
	Requests  int
	Completed int
	Failed    int
	LocalHits int
	Attempts  int
	// P50, P95, P99 are transfer-latency quantiles in seconds.
	P50, P95, P99 float64
	GoodputMbps   float64
	SiteSkew      float64
	// Replications and Removals are the control loop's completed
	// placement actions (0 under the static policy).
	Replications int
	Removals     int
}

// Submitted is how many requests actually went through simxfer.Submit.
func (r TrafficResult) Submitted() int { return r.Requests - r.LocalHits }

// trafficWorld is one topology tier of the sweep.
type trafficWorld struct {
	label string
	// tier derives the world's seed from the experiment seed: every
	// policy and fault level of one tier replays the identical arrival
	// stream, so row differences come from the policy and faults alone.
	tier  int64
	topo  topo.Spec
	files int
	// replicas is the initial per-file replica count; fileBytes the
	// catalog size (the cost of one dynamic replication copy).
	replicas  int
	fileBytes int64
	// ratePerMinute is per region; horizon fixes the request volume.
	ratePerMinute float64
	horizon       time.Duration
	epoch         time.Duration
	sizesMB       []int64
	streams       int
	// tcpBuffer is the per-channel TCP window; zero keeps the un-tuned
	// 64 KiB default (right for the metro tier's short RTTs, hopeless
	// across planetary ones).
	tcpBuffer int
}

// The metro tier is small enough to sweep the full policy x fault grid;
// the planet tier is the 200-site world from the planet-scale sweep,
// driven at a volume of over a million requests in one run.
func trafficWorlds() []trafficWorld {
	return []trafficWorld{
		{
			label:         "metro-20",
			tier:          1,
			topo:          topo.Spec{Regions: 4, SitesPerRegion: 5, ClustersPerSite: 1, HostsPerCluster: 5},
			files:         200,
			replicas:      2,
			fileBytes:     64 << 20,
			ratePerMinute: 150,
			horizon:       2 * time.Hour,
			epoch:         10 * time.Minute,
			sizesMB:       []int64{1, 2, 4},
			streams:       2,
		},
	}
}

// planetTrafficWorld is the megarow: the 200-site, 10k-host world run
// long enough that one run pushes over a million requests through the
// unified transfer API. The rate is deliberately moderate — request
// latency on this world is dominated by WAN round trips, so transfers
// live for seconds and the offered rate directly sets the concurrent
// flow population the allocator must re-waterfill on every event; a
// long horizon at sustainable concurrency is dramatically cheaper than
// a short flood (cost per event scales with component size), and is
// also the honest open-loop regime — a flood pushes the open loop past
// capacity and measures queueing collapse, not the grid.
func planetTrafficWorld() trafficWorld {
	return trafficWorld{
		label:         "planet-200",
		tier:          2,
		topo:          topo.Spec{Regions: 10, SitesPerRegion: 20, ClustersPerSite: 2, HostsPerCluster: 25},
		files:         2000,
		replicas:      4,
		fileBytes:     64 << 20,
		ratePerMinute: 60,
		horizon:       1700 * time.Minute,
		epoch:         30 * time.Minute,
		sizesMB:       []int64{1, 2},
		streams:       1,
		tcpBuffer:     1 << 20,
	}
}

// trafficSpec realizes one grid point's traffic.Spec.
func trafficSpec(seed int64, w trafficWorld, pol traffic.PolicyKind, intensity int) traffic.Spec {
	return traffic.Spec{
		Seed:             seed + w.tier*104729,
		Topology:         w.topo,
		Files:            w.files,
		Replicas:         w.replicas,
		FileBytes:        w.fileBytes,
		RatePerMinute:    w.ratePerMinute,
		Horizon:          w.horizon,
		DispatchInterval: 10 * time.Second,
		Epoch:            w.epoch,
		HotFiles:         0.05,
		WarmFiles:        0.25,
		HotShare:         0.7,
		WarmShare:        0.2,
		ZipfS:            1.4,
		DiurnalAmplitude: 0.4,
		DiurnalPeriod:    4 * time.Hour,
		SizesMB:          w.sizesMB,
		Streams:          w.streams,
		TCPBufferBytes:   w.tcpBuffer,
		Failover:         true,
		FaultIntensity:   intensity,
		Policy:           pol,
	}
}

func trafficPoint(seed int64, w trafficWorld, pol traffic.PolicyKind, intensity int) (TrafficResult, error) {
	rep, err := traffic.Run(trafficSpec(seed, w, pol, intensity), 1)
	if err != nil {
		return TrafficResult{}, err
	}
	name := "static"
	if pol == traffic.PolicyPopularity {
		name = "popularity"
	}
	return TrafficResult{
		Label:         w.label,
		Sites:         w.topo.Regions * w.topo.SitesPerRegion,
		Hosts:         w.topo.Regions * w.topo.SitesPerRegion * w.topo.ClustersPerSite * w.topo.HostsPerCluster,
		RatePerMinute: w.ratePerMinute,
		Policy:        name,
		Intensity:     intensity,
		Requests:      rep.Requests,
		Completed:     rep.Completed,
		Failed:        rep.Failed,
		LocalHits:     rep.LocalHits,
		Attempts:      rep.Attempts,
		P50:           rep.P50,
		P95:           rep.P95,
		P99:           rep.P99,
		GoodputMbps:   rep.GoodputMbps,
		SiteSkew:      rep.SiteSkew,
		Replications:  rep.Replications,
		Removals:      rep.Removals,
	}, nil
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
func ExtensionTraffic(seed int64, opts ...Option) ([]TrafficResult, string, error) {
	cfg := buildConfig(opts)
	type point struct {
		w         trafficWorld
		pol       traffic.PolicyKind
		intensity int
	}
	var points []point
	for _, w := range trafficWorlds() {
		for _, intensity := range []int{0, 2} {
			for _, pol := range []traffic.PolicyKind{traffic.PolicyNone, traffic.PolicyPopularity} {
				points = append(points, point{w, pol, intensity})
			}
		}
	}
	points = append(points, point{planetTrafficWorld(), traffic.PolicyPopularity, 1})

	jobs := make([]runner.Job[TrafficResult], len(points))
	for i, p := range points {
		p := p
		jobs[i] = runner.Job[TrafficResult]{
			Name: fmt.Sprintf("traffic/%s/%v/i%d", p.w.label, p.pol, p.intensity),
			Run: func() (TrafficResult, error) {
				return trafficPoint(seed, p.w, p.pol, p.intensity)
			},
		}
	}
	out, err := runPoints(cfg, jobs)
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

	tb := metrics.NewTable(
		"Extension: traffic plane (Zipf request flood x dynamic replication; latencies in seconds)",
		"world", "rate/min", "policy", "faults", "requests", "ok", "fail", "local",
		"p50", "p95", "p99", "goodput Mb/s", "skew", "repl", "rm")
	for _, r := range out {
		tb.AddRow(r.Label,
			fmt.Sprintf("%.0f", r.RatePerMinute),
			r.Policy,
			fmt.Sprintf("%d", r.Intensity),
			fmt.Sprintf("%d", r.Requests),
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d", r.Failed),
			fmt.Sprintf("%d", r.LocalHits),
			fmt.Sprintf("%.2f", r.P50),
			fmt.Sprintf("%.2f", r.P95),
			fmt.Sprintf("%.2f", r.P99),
			fmt.Sprintf("%.1f", r.GoodputMbps),
			fmt.Sprintf("%.2f", r.SiteSkew),
			fmt.Sprintf("%d", r.Replications),
			fmt.Sprintf("%d", r.Removals))
	}
	return out, tb.String(), nil
}
