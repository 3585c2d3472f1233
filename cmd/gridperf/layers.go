package main

// layers.go is the only file of gridperf that imports internal/...: the
// four workload drivers, the replay driver and every per-layer counter
// read live here, so a change to a layer's API edits this one file.
//
// replay is a copy of traffic.Run, not traffic.Run itself. What it copies,
// and must keep in step with internal/traffic, is written down here once:
//
//   - world: topo.Generate(spec.Topology with Seed = spec.Seed) ->
//     Topology.Build -> base CPU and I/O load of every host drawn from
//     rand.NewSource(spec.Seed+1) in region, host order (CPU first) ->
//     replica.NewSharded + PlaceFiles -> NewHierarchicalServer(PaperWeights)
//     -> per region NewPublisher(hub view) + AddRegion -> simxfer.New ->
//     faults: GeneratePlan(Seed = spec.Seed + intensity*7919, 3n link
//     flaps, 2n host crashes, 2n disk degrades, mean 2 min, victims the
//     first two hosts of every region, links the boundary cut) + Install.
//   - arrivals: region r draws from rand.NewSource(spec.Seed+1000+r*7919);
//     three Zipf samplers (hot, warm, cold) share that source; per arrival
//     the draws are class (Float64), rank (Zipf), size (Intn), destination
//     (Intn), then the next gap (ExpFloat64 inside workload.Arrivals).
//   - executor: landing hosts come from rand.NewSource(spec.Seed+5), one
//     Intn per AddReplica, after SelectBest and Logical.
//   - loop: every DispatchInterval RunUntil(now); on an epoch boundary
//     republish every region, then OnEpoch; then drain the regions in
//     order: Rank at the epoch start, nearest-first tiering, local hit or
//     Submit scheduled at arrival + DispatchInterval; after the horizon
//     stop the arrivals and settle in 5-minute steps.
//
// traffic.Run advances a one-shard ShardedEngine; replay advances the
// plain Engine underneath it, which fires the same events in the same
// order. Only the popularity policy with failover on is copied, because
// that is all the two traffic workloads use.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/experiments"
	"github.com/hpclab/datagrid/internal/faults"
	"github.com/hpclab/datagrid/internal/gridstate"
	"github.com/hpclab/datagrid/internal/metrics"
	"github.com/hpclab/datagrid/internal/placement"
	"github.com/hpclab/datagrid/internal/replica"
	"github.com/hpclab/datagrid/internal/runner"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/simxfer"
	"github.com/hpclab/datagrid/internal/topo"
	"github.com/hpclab/datagrid/internal/traffic"
	"github.com/hpclab/datagrid/internal/workload"
)

// layerPrefix starts the name of every function in one of the repo's
// layers, as a CPU profile prints it.
const layerPrefix = "github.com/hpclab/datagrid/internal/"

// outcome is what one pass over a workload produced: the op count, the
// modelled grid's results where the workload has any, a digest of the
// formatted output, the output checks that failed, and (from a traced
// pass) the counters read off the layers' public getters.
type outcome struct {
	Ops      int                `json:"ops"`
	Sim      map[string]float64 `json:"sim,omitempty"`
	Digest   string             `json:"digest"`
	Failures []string           `json:"failures,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
}

func (o *outcome) failf(format string, a ...any) {
	o.Failures = append(o.Failures, fmt.Sprintf(format, a...))
}

func digest(s string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16]
}

// world is a workload's state after set-up: everything built through the
// layers' public constructors up to the first publish.
type world interface {
	// real runs the program's own path, with the meter around the timed
	// section.
	real(m *meter) (*outcome, error)
	// traced runs the path gridperf can put spans around: the same driver
	// for select-churn and paper-suite, replay for the traffic workloads.
	// A nil recorder makes it the untraced reference for that path.
	traced(rec *recorder, m *meter) (*outcome, error)
}

// workloadDef is one named workload. setup is timed as setup_s.
type workloadDef struct {
	name  string
	why   string
	setup func(seed int64, smoke bool, rec *recorder) (world, error)
}

var workloads = []workloadDef{
	{
		name: "planet-traffic",
		why:  "10k-host WAN world: flows live for seconds, so netsim water-filling and route trees carry the run",
		setup: func(_ int64, smoke bool, rec *recorder) (world, error) {
			return setupTraffic(planetShape(smoke).spec(), rec)
		},
	},
	{
		name: "metro-traffic",
		why:  "100-host world, same code path: routing is free, so the per-request path and its allocations show",
		setup: func(_ int64, smoke bool, rec *recorder) (world, error) {
			return setupTraffic(metroShape(smoke).spec(), rec)
		},
	},
	{
		name:  "select-churn",
		why:   "no flows: Rank on a 100k-file catalog beside Register, Unregister and republish; core, replica, gridstate only",
		setup: setupChurn,
	},
	{
		name:  "paper-suite",
		why:   "the paper's 3-site testbed with the full monitoring stack, flat selection stack and runner pool",
		setup: setupSuite,
	},
}

// ---- traffic workloads ----------------------------------------------------

type trafficShape struct {
	tier            int64 // as experiments' sweep: Spec.Seed = seed + tier*104729
	topo            topo.Spec
	files, replicas int
	rate            float64
	horizon, epoch  time.Duration
	sizesMB         []int64
	streams         int
	tcpBuffer       int
	faults          int
}

// planetShape is the ROADMAP megarow's world with the horizon cut so the
// timed section takes about eight seconds on two cores.
func planetShape(smoke bool) trafficShape {
	s := trafficShape{
		tier:     2,
		topo:     topo.Spec{Regions: 10, SitesPerRegion: 20, ClustersPerSite: 2, HostsPerCluster: 25},
		files:    2000,
		replicas: 4,
		rate:     60,
		horizon:  60 * time.Minute,
		epoch:    30 * time.Minute,
		sizesMB:  []int64{1, 2},
		streams:  1,
		// WAN round trips make the un-tuned 64 KiB window the bound on
		// every transfer; the megarow runs with a tuned one.
		tcpBuffer: 1 << 20,
		faults:    1,
	}
	if smoke {
		s.topo = topo.Spec{Regions: 10, SitesPerRegion: 2, ClustersPerSite: 1, HostsPerCluster: 5}
		s.files, s.rate, s.horizon, s.epoch = 200, 10, 15*time.Minute, 5*time.Minute
	}
	return s
}

// metroShape is the traffic sweep's metro tier under faults.
func metroShape(smoke bool) trafficShape {
	s := trafficShape{
		tier:     1,
		topo:     topo.Spec{Regions: 4, SitesPerRegion: 5, ClustersPerSite: 1, HostsPerCluster: 5},
		files:    200,
		replicas: 2,
		rate:     150,
		horizon:  500 * time.Minute,
		epoch:    10 * time.Minute,
		sizesMB:  []int64{1, 2, 4},
		streams:  2,
		faults:   2,
	}
	if smoke {
		s.rate, s.horizon, s.epoch = 30, 15*time.Minute, 5*time.Minute
	}
	return s
}

// publishedSeed is the seed behind every number the repo has published:
// gridbench's default, and so the megarow's and the metro tier's world.
const publishedSeed = 42

// spec is the workload's traffic.Spec. It does not take the benchmark's
// seed. traffic.Run draws the world and the requests from the one
// Spec.Seed, and the world alone sets the cost: across seeds 1 to 4 the
// same horizon took 9.3 to 16.3 s on the planet world and 5.8 to 8.6 s on
// the metro world, with the planet's sim_p50_s from 2.4 to 4.4 s. A benchmark
// whose runs must agree across seeds cannot draw a new world per run, so
// both traffic workloads run the published world until traffic.Spec can
// seed the world and the requests apart.
func (s trafficShape) spec() traffic.Spec {
	return traffic.Spec{
		Seed:             publishedSeed + s.tier*104729,
		Topology:         s.topo,
		Files:            s.files,
		Replicas:         s.replicas,
		FileBytes:        64 << 20,
		RatePerMinute:    s.rate,
		Horizon:          s.horizon,
		DispatchInterval: 10 * time.Second,
		Epoch:            s.epoch,
		HotFiles:         0.05,
		WarmFiles:        0.25,
		HotShare:         0.7,
		WarmShare:        0.2,
		ZipfS:            1.4,
		DiurnalAmplitude: 0.4,
		DiurnalPeriod:    4 * time.Hour,
		SizesMB:          s.sizesMB,
		Streams:          s.streams,
		TCPBufferBytes:   s.tcpBuffer,
		Failover:         true,
		FaultIntensity:   s.faults,
		Policy:           traffic.PolicyPopularity,
		MinReplicas:      1,
		MaxReplicas:      s.topo.Regions,
	}
}

// grid is a generated world held by gridperf itself, handles and all:
// what traffic.Run builds and hides, and what select-churn ranks against.
type grid struct {
	top  *topo.Topology
	eng  *simulation.Engine
	tb   *cluster.Testbed
	cat  *replica.ShardedCatalog
	srv  *core.HierarchicalServer
	pubs []*gridstate.Publisher // in top.Regions order

	hostsBuilt int // BuildHostPerf calls, counted by hubView
}

// hubView derives a host's HostPerf from the live network and load state
// as seen from the host's region hub.
type hubView struct {
	g   *grid
	hub string
}

func (b hubView) BuildHostPerf(host string, now time.Duration) (gridstate.HostPerf, error) {
	b.g.hostsBuilt++
	net := b.g.tb.Network()
	theo, err := net.BottleneckBps(b.hub, host)
	if err != nil {
		return gridstate.HostPerf{}, err
	}
	avail, err := net.AvailableBps(b.hub, host)
	if err != nil {
		return gridstate.HostPerf{}, err
	}
	h, err := b.g.tb.Host(host)
	if err != nil {
		return gridstate.HostPerf{}, err
	}
	return gridstate.HostPerf{
		Host:             host,
		Local:            b.hub,
		BandwidthMbps:    avail / 1e6,
		TheoreticalMbps:  theo / 1e6,
		BandwidthPercent: 100 * avail / theo,
		CPUIdlePercent:   100 * h.CPUIdle(),
		IOIdlePercent:    100 * h.IOIdle(),
		At:               now,
	}, nil
}

// buildGrid builds a world through the public constructors, up to and
// including the first publish.
func buildGrid(seed int64, ts topo.Spec, files, replicas int, fileBytes int64, rec *recorder) (*grid, error) {
	ts.Seed = seed
	g := &grid{eng: simulation.NewEngine()}
	var err error

	id := rec.begin("topo.generate", -1)
	g.top, err = topo.Generate(ts)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("topo.build", -1)
	g.tb, err = g.top.Build(g.eng)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for _, region := range g.top.Regions {
		for _, hn := range g.top.HostsByRegion[region] {
			h, err := g.tb.Host(hn)
			if err != nil {
				return nil, err
			}
			if err := h.SetBaseCPULoad(0.05 + 0.85*rng.Float64()); err != nil {
				return nil, err
			}
			if err := h.SetBaseIOLoad(0.05 + 0.85*rng.Float64()); err != nil {
				return nil, err
			}
		}
	}
	g.cat = replica.NewSharded(topo.RegionOfHost)
	id = rec.begin("replica.place", -1)
	err = g.top.PlaceFiles(g.cat, files, replicas, fileBytes)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if g.srv, err = core.NewHierarchicalServer(g.cat, core.PaperWeights, nil); err != nil {
		return nil, err
	}
	for _, region := range g.top.Regions {
		hub := g.top.HubSwitch[region]
		pub, err := gridstate.NewPublisher(hub, g.top.HostsByRegion[region], hubView{g: g, hub: hub})
		if err != nil {
			return nil, err
		}
		g.pubs = append(g.pubs, pub)
		if err := g.srv.AddRegion(region, pub); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// publish rebuilds every region's snapshot at now.
func (g *grid) publish(now time.Duration, rec *recorder) error {
	for i, pub := range g.pubs {
		id := rec.begin("gridstate.publish", -1)
		s := pub.Snapshot(now)
		rec.end(id)
		if s == nil {
			return fmt.Errorf("publish %s at %v produced no snapshot", g.top.Regions[i], now)
		}
	}
	return nil
}

// trafficWorld is a traffic workload after set-up. The grid is what replay
// runs on; traffic.Run builds its own from the same spec.
type trafficWorld struct {
	spec     traffic.Spec
	g        *grid
	xfer     *simxfer.Transferrer
	episodes int
}

func setupTraffic(spec traffic.Spec, rec *recorder) (world, error) {
	g, err := buildGrid(spec.Seed, spec.Topology, spec.Files, spec.Replicas, spec.FileBytes, rec)
	if err != nil {
		return nil, err
	}
	w := &trafficWorld{spec: spec, g: g}
	if w.xfer, err = simxfer.New(g.tb); err != nil {
		return nil, err
	}
	id := rec.begin("faults.install", -1)
	err = w.installFaults()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if err := g.publish(0, rec); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *trafficWorld) installFaults() error {
	cut, _, err := w.g.top.BoundaryCut()
	if err != nil {
		return err
	}
	links := make([][2]string, 0, len(cut))
	for _, bl := range cut {
		links = append(links, [2]string{cluster.SwitchNode(bl.From), cluster.SwitchNode(bl.To)})
	}
	var hosts []string
	for _, region := range w.g.top.Regions {
		rh := w.g.top.HostsByRegion[region]
		for i := 0; i < 2 && i < len(rh); i++ {
			hosts = append(hosts, rh[i])
		}
	}
	n := w.spec.FaultIntensity
	plan, err := faults.GeneratePlan(faults.Config{
		Seed:         w.spec.Seed + int64(n)*7919,
		Horizon:      w.spec.Horizon,
		MeanDuration: 2 * time.Minute,
		LinkFlaps:    3 * n,
		HostCrashes:  2 * n,
		DiskDegrades: 2 * n,
		Hosts:        hosts,
		Links:        links,
	})
	if err != nil {
		return err
	}
	inj, err := faults.NewInjector(w.g.tb, nil)
	if err != nil {
		return err
	}
	if err := inj.Install(plan); err != nil {
		return err
	}
	w.episodes = inj.Installed()
	return nil
}

// options is the transfer configuration of every transfer of the plane,
// client requests and replication copies alike.
func (w *trafficWorld) options() simxfer.Options {
	o := simxfer.GridFTPOptions(w.spec.Streams)
	o.TCPBufferBytes = w.spec.TCPBufferBytes
	return o
}

// simResults are the modelled grid's numbers a traffic pass reports.
func simResults(requests, failed int, p50, p99, goodput float64) map[string]float64 {
	return map[string]float64{
		"sim_p50_s":        p50,
		"sim_p99_s":        p99,
		"sim_goodput_mbps": goodput,
		"fail_share":       float64(failed) / float64(requests),
	}
}

// real times traffic.Run, which builds its own world from the spec; the
// copy gridperf set up is dropped first so that it is not part of peak RSS.
func (w *trafficWorld) real(m *meter) (*outcome, error) {
	w.g, w.xfer = nil, nil
	m.start()
	rep, err := traffic.Run(w.spec, 1)
	m.stop()
	if err != nil {
		return nil, err
	}
	out := &outcome{
		Ops:    rep.Requests,
		Sim:    simResults(rep.Requests, rep.Failed, rep.P50, rep.P99, rep.GoodputMbps),
		Digest: digest(fmt.Sprintf("%+v", *rep)),
	}
	if rep.Requests != rep.Completed+rep.Failed+rep.LocalHits {
		out.failf("requests %d != completed %d + failed %d + local hits %d",
			rep.Requests, rep.Completed, rep.Failed, rep.LocalHits)
	}
	if !(rep.P50 <= rep.P95 && rep.P95 <= rep.P99) {
		out.failf("latency quantiles out of order: p50 %v p95 %v p99 %v", rep.P50, rep.P95, rep.P99)
	}
	if rep.Replications == 0 {
		out.failf("the popularity policy completed no replication")
	}
	return out, nil
}

// arrival is one buffered client request.
type arrival struct {
	at    time.Duration
	file  string
	bytes int64
	dst   string
	op    int
}

// classBounds splits the catalog into hot, warm and cold index ranges the
// way traffic.Spec does.
func classBounds(s traffic.Spec) (hotEnd, warmEnd int) {
	hotEnd = int(s.HotFiles * float64(s.Files))
	if hotEnd < 1 {
		hotEnd = 1
	}
	warmEnd = hotEnd + int(s.WarmFiles*float64(s.Files))
	if warmEnd <= hotEnd {
		warmEnd = hotEnd + 1
	}
	if warmEnd >= s.Files {
		warmEnd = s.Files - 1
	}
	if hotEnd >= warmEnd {
		hotEnd = warmEnd - 1
	}
	return hotEnd, warmEnd
}

// replayRun is the state of one replay: the copy of traffic's collector,
// executor and per-region generators.
type replayRun struct {
	w   *trafficWorld
	rec *recorder

	latency   *metrics.QuantileSketch
	bytesDone int64
	requests  int
	completed int
	failed    int
	localHits int
	attempts  int
	submits   int
	inflight  int

	pending  [][]arrival // per region
	arrivals []*workload.Arrivals

	policy  *placement.PopularityPolicy
	execRng *rand.Rand
	now     time.Duration // epoch start the executor acts at
}

func (w *trafficWorld) traced(rec *recorder, m *meter) (*outcome, error) {
	r := &replayRun{
		w:       w,
		rec:     rec,
		latency: metrics.NewQuantileSketch(0.01),
		pending: make([][]arrival, len(w.g.top.Regions)),
		execRng: rand.New(rand.NewSource(w.spec.Seed + 5)),
	}
	m.start()
	root := rec.begin("replay", -1)
	err := r.run()
	rec.end(root)
	m.stop()
	if err != nil {
		return nil, err
	}
	return r.outcome(), nil
}

func (r *replayRun) startArrivals(region int) error {
	spec, g := r.w.spec, r.w.g
	rng := rand.New(rand.NewSource(spec.Seed + 1000 + int64(region)*7919))
	hotEnd, warmEnd := classBounds(spec)
	zipf := func(n int) (*rand.Zipf, error) {
		z := rand.NewZipf(rng, spec.ZipfS, 1, uint64(n-1))
		if z == nil {
			return nil, fmt.Errorf("bad Zipf parameters s=%v n=%d", spec.ZipfS, n)
		}
		return z, nil
	}
	hot, err := zipf(hotEnd)
	if err != nil {
		return err
	}
	warm, err := zipf(warmEnd - hotEnd)
	if err != nil {
		return err
	}
	cold, err := zipf(spec.Files - warmEnd)
	if err != nil {
		return err
	}
	hosts := g.top.HostsByRegion[g.top.Regions[region]]
	period := spec.DiurnalPeriod.Seconds()
	phase := float64(region) / float64(len(g.top.Regions))
	rate := func(now time.Duration) float64 {
		return spec.RatePerMinute * (1 + spec.DiurnalAmplitude*math.Sin(2*math.Pi*(now.Seconds()/period+phase)))
	}
	a, err := workload.NewArrivals(g.eng, rng, rate, func(now time.Duration) {
		var idx int
		switch u := rng.Float64(); {
		case u < spec.HotShare:
			idx = int(hot.Uint64())
		case u < spec.HotShare+spec.WarmShare:
			idx = hotEnd + int(warm.Uint64())
		default:
			idx = warmEnd + int(cold.Uint64())
		}
		r.pending[region] = append(r.pending[region], arrival{
			at:    now,
			file:  fmt.Sprintf("lfn:d%d", idx),
			bytes: spec.SizesMB[rng.Intn(len(spec.SizesMB))] * workload.MB,
			dst:   hosts[rng.Intn(len(hosts))],
		})
	})
	if err != nil {
		return err
	}
	r.arrivals = append(r.arrivals, a)
	return nil
}

// maxSources caps the ranked candidates a request carries, as traffic.Run.
const maxSources = 4

func (r *replayRun) run() error {
	spec, g := r.w.spec, r.w.g
	var err error
	r.policy, err = placement.NewPopularityPolicy(r, placement.PopularityConfig{
		RegionOf:    topo.RegionOfHost,
		Regions:     len(g.top.Regions),
		MinReplicas: spec.MinReplicas,
		MaxReplicas: spec.MaxReplicas,
	})
	if err != nil {
		return err
	}
	for region := range g.top.Regions {
		if err := r.startArrivals(region); err != nil {
			return err
		}
	}
	epochStart := time.Duration(0)
	if err := g.publish(epochStart, r.rec); err != nil {
		return err
	}
	for now := time.Duration(0); now < spec.Horizon; {
		now += spec.DispatchInterval
		if err := r.runUntil(now); err != nil {
			return err
		}
		if now%spec.Epoch == 0 {
			if err := g.publish(now, r.rec); err != nil {
				return err
			}
			epochStart, r.now = now, now
			id := r.rec.begin("placement.epoch", -1)
			err := r.policy.OnEpoch(now)
			r.rec.end(id)
			if err != nil {
				return err
			}
		}
		for region := range r.pending {
			if err := r.dispatch(region, epochStart); err != nil {
				return err
			}
		}
	}
	for _, a := range r.arrivals {
		a.Stop()
	}
	deadline := spec.Horizon
	for r.inflight > 0 {
		deadline += 5 * time.Minute
		if deadline > spec.Horizon+12*time.Hour {
			return fmt.Errorf("replay: %d transfers still in flight at %v", r.inflight, deadline)
		}
		if err := r.runUntil(deadline); err != nil {
			return err
		}
	}
	return nil
}

func (r *replayRun) runUntil(t time.Duration) error {
	id := r.rec.begin("simulation.rununtil", -1)
	err := r.w.g.eng.RunUntil(t)
	r.rec.end(id)
	return err
}

// nearestFirst reorders ranked candidates by proximity to the requester:
// same host, same site, same region, elsewhere; score order holds within a
// tier.
func nearestFirst(cands []core.Candidate, requester string) {
	site, region := topo.SiteOfHost(requester), topo.RegionOfHost(requester)
	tier := func(c core.Candidate) int {
		h := c.Location.Host
		switch {
		case h == requester:
			return 0
		case topo.SiteOfHost(h) == site:
			return 1
		case topo.RegionOfHost(h) == region:
			return 2
		}
		return 3
	}
	sort.SliceStable(cands, func(i, j int) bool { return tier(cands[i]) < tier(cands[j]) })
}

func (r *replayRun) access(rq arrival, servedFrom string) error {
	id := r.rec.begin("placement.access", rq.op)
	err := r.policy.OnAccess(placement.Access{Logical: rq.file, ServedFrom: servedFrom, Client: rq.dst, At: rq.at})
	r.rec.end(id)
	return err
}

func (r *replayRun) dispatch(region int, epochStart time.Duration) error {
	spec, g := r.w.spec, r.w.g
	batch := r.pending[region]
	r.pending[region] = batch[len(batch):]
	for _, rq := range batch {
		rq.op = r.requests
		r.requests++
		id := r.rec.begin("core.rank", rq.op)
		cands, err := g.srv.Rank(rq.file, epochStart)
		r.rec.end(id)
		if err != nil {
			return fmt.Errorf("replay: rank %s: %w", rq.file, err)
		}
		nearestFirst(cands, rq.dst)
		if cands[0].Location.Host == rq.dst {
			r.localHits++
			if err := r.access(rq, rq.dst); err != nil {
				return err
			}
			continue
		}
		sources := make([]string, 0, maxSources)
		for _, cand := range cands {
			if cand.Location.Host == rq.dst {
				continue
			}
			sources = append(sources, cand.Location.Host)
			if len(sources) == maxSources {
				break
			}
		}
		if err := r.access(rq, sources[0]); err != nil {
			return err
		}
		req := simxfer.Request{
			Sources: sources,
			Dst:     rq.dst,
			Bytes:   rq.bytes,
			Options: r.w.options(),
			Failover: &simxfer.FailoverPolicy{
				Mode:           simxfer.FailoverReselect,
				MaxAttempts:    3,
				InitialBackoff: 2 * time.Second,
				MaxBackoff:     30 * time.Second,
				AttemptTimeout: 4 * time.Minute,
				Rank:           r.aliveFirst,
			},
			Done: r.done,
		}
		r.inflight++
		op := rq.op
		if _, err := g.eng.Schedule(rq.at+spec.DispatchInterval, func(time.Duration) {
			r.submit(req, op)
		}); err != nil {
			return err
		}
	}
	return nil
}

// submit runs inside an engine callback. Submit rejects malformed requests
// only, and replay builds them from a validated spec.
func (r *replayRun) submit(req simxfer.Request, op int) {
	r.submits++
	id := r.rec.begin("simxfer.submit", op)
	err := r.w.xfer.Submit(req)
	r.rec.end(id)
	if err != nil {
		panic(fmt.Sprintf("replay: submit %s -> %s: %v", req.Sources[0], req.Dst, err))
	}
}

func (r *replayRun) aliveFirst(_ time.Duration, alive []string) []string {
	out := make([]string, 0, len(alive))
	for _, h := range alive {
		if down, err := r.w.g.tb.HostDown(h); err == nil && !down {
			out = append(out, h)
		}
	}
	if len(out) == 0 {
		return alive
	}
	return out
}

func (r *replayRun) done(res simxfer.Result) {
	r.inflight--
	r.attempts += len(res.Attempts)
	if res.Err != nil {
		r.failed++
		return
	}
	r.completed++
	r.bytesDone += res.Bytes
	r.latency.Add(res.Duration().Seconds())
}

// replayRun is the placement.Executor of its own policy.

func (r *replayRun) HoldingRegions(logical string) ([]string, error) {
	return r.w.g.cat.RegionsWith(logical)
}

func (r *replayRun) AddReplica(logical, region string, done func(error)) error {
	g := r.w.g
	hosts := g.top.HostsByRegion[region]
	if len(hosts) == 0 {
		return fmt.Errorf("replay: unknown replica region %q", region)
	}
	id := r.rec.begin("core.rank", -1)
	best, err := g.srv.SelectBest(logical, r.now)
	r.rec.end(id)
	if err != nil {
		return err
	}
	lf, err := g.cat.Logical(logical)
	if err != nil {
		return err
	}
	dst := hosts[r.execRng.Intn(len(hosts))]
	src := best.Location.Host
	if src == dst {
		return fmt.Errorf("replay: replica of %s would copy %s onto itself", logical, src)
	}
	req := simxfer.Request{
		Sources: []string{src},
		Dst:     dst,
		Bytes:   lf.SizeBytes,
		Options: r.w.options(),
		Done: func(res simxfer.Result) {
			r.inflight--
			if res.Err == nil {
				id := r.rec.begin("replica.register", -1)
				res.Err = g.cat.Register(logical, replica.Location{Host: dst, Path: "/replicas/" + region + "/" + logical})
				r.rec.end(id)
			}
			done(res.Err)
		},
	}
	r.inflight++
	if _, err := g.eng.Schedule(r.now, func(time.Duration) { r.submit(req, -1) }); err != nil {
		r.inflight--
		return err
	}
	return nil
}

func (r *replayRun) RemoveReplica(logical, region string) error {
	g := r.w.g
	regions, err := g.cat.RegionsWith(logical)
	if err != nil {
		return err
	}
	if len(regions) < 2 {
		return fmt.Errorf("replay: refusing to orphan %s (only %v holds it)", logical, regions)
	}
	shard := g.cat.Shard(region)
	if shard == nil {
		return fmt.Errorf("replay: unknown replica region %q", region)
	}
	locs, err := shard.Locations(logical)
	if err != nil {
		return err
	}
	id := r.rec.begin("replica.unregister", -1)
	err = g.cat.Unregister(logical, locs[0].Host, locs[0].Path)
	r.rec.end(id)
	return err
}

func quantile(s *metrics.QuantileSketch, q float64) float64 {
	v, err := s.Quantile(q)
	if err != nil {
		return 0
	}
	return v
}

func (r *replayRun) outcome() *outcome {
	g := r.w.g
	goodput := float64(r.bytesDone) * 8 / 1e6 / r.w.spec.Horizon.Seconds()
	out := &outcome{
		Ops:    r.requests,
		Sim:    simResults(r.requests, r.failed, quantile(r.latency, 0.50), quantile(r.latency, 0.99), goodput),
		Layers: map[string]float64{},
	}
	out.Digest = digest(fmt.Sprintf("%d %d %d %d %d %v", r.requests, r.completed, r.failed, r.localHits, r.attempts, out.Sim))
	if r.requests != r.completed+r.failed+r.localHits {
		out.failf("replay: requests %d != completed %d + failed %d + local hits %d",
			r.requests, r.completed, r.failed, r.localHits)
	}
	l := out.Layers
	l["simulation.events_fired"] = float64(g.eng.Fired())
	netCounters(l, g)
	coreCounters(l, g.srv.Stats())
	l["simxfer.submits"] = float64(r.submits)
	l["simxfer.attempts"] = float64(r.attempts)
	l["simxfer.attempts_per_submit"] = ratio(float64(r.attempts), float64(r.submits))
	gridstateCounters(l, g)
	st := r.policy.Stats()
	l["placement.replications"] = float64(st.Replications)
	l["placement.removals"] = float64(st.Removals)
	l["replica.writes"] = float64(st.Replications + st.Removals)
	l["faults.episodes"] = float64(r.w.episodes)
	n := 0
	for _, a := range r.arrivals {
		n += a.Count()
	}
	l["workload.arrivals"] = float64(n)
	l["replay.requests"] = float64(r.requests)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func netCounters(l map[string]float64, g *grid) {
	rs := g.tb.Network().RouteStats()
	l["netsim.route_queries"] = float64(rs.Queries)
	l["netsim.tree_builds"] = float64(rs.TreeBuilds)
	l["netsim.path_builds"] = float64(rs.PathBuilds)
	l["netsim.tree_builds_per_query"] = ratio(float64(rs.TreeBuilds), float64(rs.Queries))
	as := g.tb.Network().ReallocStats()
	l["netsim.realloc_events"] = float64(as.Events)
	l["netsim.realloc_rounds"] = float64(as.Rounds)
	l["netsim.flows_scanned"] = float64(as.FlowsScanned)
	l["netsim.comps_dirtied"] = float64(as.ComponentsDirtied)
	l["netsim.max_component_flows"] = float64(as.MaxComponentFlows)
	l["netsim.flows_scanned_per_event"] = ratio(float64(as.FlowsScanned), float64(as.Events))
}

func gridstateCounters(l map[string]float64, g *grid) {
	for _, pub := range g.pubs {
		l["gridstate.publishes"] += float64(pub.Epoch())
	}
	l["gridstate.hosts_built"] = float64(g.hostsBuilt)
}

func coreCounters(l map[string]float64, hs core.HierarchyStats) {
	l["core.selections"] = float64(hs.Selections)
	l["core.hosts_scanned"] = float64(hs.HostsScanned)
	l["core.hosts_scanned_per_selection"] = ratio(float64(hs.HostsScanned), float64(hs.Selections))
}

// ---- select-churn ---------------------------------------------------------

type churnShape struct {
	topo     topo.Spec
	files    int
	replicas int
	ops      int
	epochOps int // ops between two republishes
}

func churnSize(smoke bool) churnShape {
	if smoke {
		return churnShape{
			topo:  topo.Spec{Regions: 10, SitesPerRegion: 2, ClustersPerSite: 1, HostsPerCluster: 5},
			files: 1000, replicas: 4, ops: 20_000, epochOps: 5_000,
		}
	}
	return churnShape{
		topo:  topo.Spec{Regions: 10, SitesPerRegion: 20, ClustersPerSite: 2, HostsPerCluster: 25},
		files: 100_000, replicas: 4, ops: 1_400_000, epochOps: 100_000,
	}
}

// extra is a replica the loop registered on top of the initial placement.
type extra struct {
	file int
	loc  replica.Location
}

// churnWorld is select-churn after set-up. The loop mutates the catalog,
// so every pass needs a freshly set-up world.
type churnWorld struct {
	shape  churnShape
	g      *grid
	names  []string // logical names by file index, so that the loop does not format
	rng    *rand.Rand
	zipf   *rand.Zipf
	extras []extra // outstanding, oldest first
}

func setupChurn(seed int64, smoke bool, rec *recorder) (world, error) {
	shape := churnSize(smoke)
	g, err := buildGrid(seed, shape.topo, shape.files, shape.replicas, 64<<20, rec)
	if err != nil {
		return nil, err
	}
	if err := g.publish(0, rec); err != nil {
		return nil, err
	}
	w := &churnWorld{shape: shape, g: g, names: make([]string, shape.files)}
	for i := range w.names {
		w.names[i] = "lfn:d" + strconv.Itoa(i)
	}
	w.rng = rand.New(rand.NewSource(seed + 3))
	w.zipf = rand.NewZipf(w.rng, 1.4, 1, uint64(shape.files-1))
	return w, nil
}

func (w *churnWorld) real(m *meter) (*outcome, error) { return w.traced(nil, m) }

func (w *churnWorld) traced(rec *recorder, m *meter) (*outcome, error) {
	m.start()
	root := rec.begin("churn", -1)
	out, err := w.loop(rec)
	rec.end(root)
	m.stop()
	if err != nil {
		return nil, err
	}
	return out, w.audit(out)
}

// loop is the timed section: one caller, 90 % Rank on Zipf-drawn files,
// 5 % Register of an extra replica in a region that lacks one, 5 %
// Unregister of the oldest extra, and a republish every epochOps ops.
func (w *churnWorld) loop(rec *recorder) (*outcome, error) {
	g := w.g
	out := &outcome{Ops: w.shape.ops, Layers: map[string]float64{}}
	var now time.Duration
	var ranks, writes int
	var sum strings.Builder
	for op := 0; op < w.shape.ops; op++ {
		if op > 0 && op%w.shape.epochOps == 0 {
			now += 5 * time.Minute
			if err := g.eng.RunUntil(now); err != nil {
				return nil, err
			}
			if err := g.publish(now, rec); err != nil {
				return nil, err
			}
		}
		switch u := w.rng.Float64(); {
		case u < 0.90:
			name := w.names[w.zipf.Uint64()]
			id := rec.begin("core.rank", op)
			cands, err := g.srv.Rank(name, now)
			rec.end(id)
			if err != nil {
				return nil, fmt.Errorf("rank %s: %w", name, err)
			}
			ranks++
			if !bestFirst(cands) {
				out.failf("rank %s at op %d: %d candidates not in (score desc, location asc) order", name, op, len(cands))
			}
			if op%1024 == 0 {
				fmt.Fprintf(&sum, "%s %s %v\n", name, cands[0].Location, cands[0].Score)
			}
		case u < 0.95 || len(w.extras) == 0:
			e, err := w.pickExtra()
			if err != nil {
				return nil, err
			}
			id := rec.begin("replica.register", op)
			err = g.cat.Register(w.names[e.file], e.loc)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			w.extras = append(w.extras, e)
			writes++
		default:
			e := w.extras[0]
			w.extras = w.extras[1:]
			id := rec.begin("replica.unregister", op)
			err := g.cat.Unregister(w.names[e.file], e.loc.Host, e.loc.Path)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			writes++
		}
	}
	hs := g.srv.Stats()
	if hs.Selections != uint64(ranks) {
		out.failf("hierarchy served %d selections, %d ranks issued", hs.Selections, ranks)
	}
	fmt.Fprintf(&sum, "%d %d %d\n", ranks, writes, len(w.extras))
	out.Digest = digest(sum.String())
	l := out.Layers
	coreCounters(l, hs)
	netCounters(l, g)
	gridstateCounters(l, g)
	l["replica.writes"] = float64(writes)
	return out, nil
}

// pickExtra draws a file and a region that holds no replica of it, and a
// host there. A file every region already holds passes the turn to the
// next file index.
func (w *churnWorld) pickExtra() (extra, error) {
	regions := w.g.top.Regions
	file, first := w.rng.Intn(len(w.names)), w.rng.Intn(len(regions))
	for ; ; file = (file + 1) % len(w.names) {
		held, err := w.g.cat.RegionsWith(w.names[file])
		if err != nil {
			return extra{}, err
		}
		for i := range regions {
			region := regions[(first+i)%len(regions)]
			if k := sort.SearchStrings(held, region); k < len(held) && held[k] == region {
				continue
			}
			hosts := w.g.top.HostsByRegion[region]
			host := hosts[w.rng.Intn(len(hosts))]
			return extra{file: file, loc: replica.Location{Host: host, Path: "/extra/" + w.names[file]}}, nil
		}
	}
}

// audit counts every registered location after the loop: the initial
// placement plus the extras still outstanding, and nothing else.
func (w *churnWorld) audit(out *outcome) error {
	locations := 0
	for _, name := range w.names {
		locs, err := w.g.cat.Locations(name)
		if err != nil {
			return err
		}
		locations += len(locs)
	}
	if want := w.shape.files*w.shape.replicas + len(w.extras); locations != want {
		out.failf("catalog holds %d locations, want %d (%d extras outstanding)", locations, want, len(w.extras))
	}
	return nil
}

// bestFirst reports whether the candidates are a non-empty list in
// (score descending, location ascending) order.
func bestFirst(cands []core.Candidate) bool {
	for i := 1; i < len(cands); i++ {
		a, b := cands[i-1], cands[i]
		if a.Score < b.Score || a.Score == b.Score && a.Location.String() > b.Location.String() {
			return false
		}
	}
	return len(cands) > 0
}

// ---- paper-suite ----------------------------------------------------------

// suiteGroups are the suite's groups behind gridbench -all and -faults.
var suiteGroups = []string{
	experiments.GroupFigure3, experiments.GroupFigure4, experiments.GroupTable1,
	experiments.GroupAblations, experiments.GroupExtensions, experiments.GroupFaults,
}

type suiteWorld struct {
	seeds   []int64
	entries []experiments.SuiteEntry
}

// suiteSeeds is how many seeds the thirteen entries run for.
const suiteSeeds = 7

// setupSuite has no world of its own to keep: every suite entry builds its
// testbeds itself. What is timed as set-up is what each of them pays before
// it can measure: the paper testbed with the full monitoring deployment,
// warmed up to its first published snapshot.
func setupSuite(seed int64, smoke bool, _ *recorder) (world, error) {
	env, err := experiments.NewEnv(seed, true)
	if err != nil {
		return nil, err
	}
	if err := env.Engine.RunUntil(experiments.Warmup); err != nil {
		return nil, err
	}
	if env.Deploy.Server.Snapshot(experiments.Warmup) == nil {
		return nil, errors.New("paper testbed published no snapshot after warm-up")
	}
	w := &suiteWorld{seeds: []int64{seed}}
	for i := 1; i < suiteSeeds && !smoke; i++ {
		w.seeds = append(w.seeds, runner.DeriveSeed(seed, i))
	}
	groups := suiteGroups
	if smoke {
		groups = groups[:4] // the paper's own artifacts and the ablations
	}
	for _, e := range experiments.Suite() {
		for _, g := range groups {
			if e.Group == g {
				w.entries = append(w.entries, e)
			}
		}
	}
	return w, nil
}

func (w *suiteWorld) real(m *meter) (*outcome, error) { return w.traced(nil, m) }

func (w *suiteWorld) traced(rec *recorder, m *meter) (*outcome, error) {
	workers := runtime.GOMAXPROCS(0)
	out := &outcome{Layers: map[string]float64{}}
	var all strings.Builder
	var busy time.Duration
	m.start()
	root := rec.begin("suite", -1)
	for i, seed := range w.seeds {
		id := rec.begin("experiments.run_entries", i)
		results, _ := experiments.RunEntries(w.entries, seed, workers)
		rec.end(id)
		byName := make(map[string]float64)
		for j, r := range results {
			out.Ops++
			if r.Err != nil {
				out.failf("seed %d: %s: %v", seed, r.Name, r.Err)
				continue
			}
			busy += r.Wall
			out.Layers["experiments."+w.entries[j].Group+"_s"] += r.Wall.Seconds()
			for _, m := range r.Metrics {
				byName[m.Name] = m.Value
				fmt.Fprintf(&all, "%d %s %s\n", i, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64))
			}
		}
		if i == 0 {
			checkPaper(out, byName)
		}
	}
	rec.end(root)
	m.stop()
	out.Digest = digest(all.String())
	out.Layers["runner.busy_share"] = ratio(busy.Seconds(), float64(workers)*m.WallS)
	return out, nil
}

// checkPaper checks the base seed's results against what the paper
// reports: the cost model ranks Table 1's candidates inversely to their
// transfer times (Spearman -1 at the published seed 42, -1 or -0.8 at every
// seed tried), GridFTP with one stream matches FTP to within its extra
// set-up round trips (Fig. 3; 0.103 % at 256 MB), and the paper's 80/10/10
// weights have no regret.
func checkPaper(out *outcome, m map[string]float64) {
	if v, ok := m["table1/spearman"]; !ok || v > -0.5 {
		out.failf("table1/spearman = %v (present %v), want -0.5 or below", v, ok)
	}
	if v, ok := m["weights/0.80-0.10-0.10/regret_sec"]; !ok || v != 0 {
		out.failf("weight-ablation regret at 80/10/10 = %v (present %v), want 0", v, ok)
	}
	sizes := 0
	for _, mb := range workload.PaperFileSizesMB {
		ftp, ok1 := m[fmt.Sprintf("fig3/%dMB/ftp_sec", mb)]
		grid, ok2 := m[fmt.Sprintf("fig3/%dMB/gridftp_sec", mb)]
		if !ok1 || !ok2 {
			continue
		}
		sizes++
		if math.Abs(ftp-grid) > 0.002*ftp {
			out.failf("fig3 at %d MB: FTP %v s vs GridFTP %v s differ by more than 0.2 %%", mb, ftp, grid)
		}
	}
	if sizes == 0 {
		out.failf("fig3 reported no FTP/GridFTP pair")
	}
}
