package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/info"
	"github.com/hpclab/datagrid/internal/metrics"
	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/simxfer"
	"github.com/hpclab/datagrid/internal/workload"
)

// StripedResult is one configuration of the striped-transfer extension.
type StripedResult struct {
	Stripes int
	Streams int
	Seconds float64
}

// ExtensionStriped evaluates the paper's future work #1: striped data
// transfer. The source host's disk is saturated, so parallel streams from
// one host cannot help, but stripes across site peers aggregate disk
// bandwidth.
func ExtensionStriped(seed int64, workers int) ([]StripedResult, string, error) {
	out, err := sweep(workers, "striped extension", []int{1, 2, 4}, func(stripes int) (StripedResult, error) {
		env, err := NewEnv(seed, false)
		if err != nil {
			return StripedResult{}, err
		}
		h, err := env.Testbed.Host("alpha4")
		if err != nil {
			return StripedResult{}, err
		}
		// Attach an I/O-heavy job: unlike base load (which the synthetic
		// load process keeps rewriting), job load persists for the whole
		// transfer.
		if _, err := h.AddJob(0.2, 0.65); err != nil {
			return StripedResult{}, err
		}
		res, err := env.MeasureAt(Warmup, "alpha4", "alpha1", 1024*workload.MB, simxfer.Options{
			Protocol: simxfer.ProtoGridFTPModeE, Streams: 2, Stripes: stripes,
		})
		return StripedResult{Stripes: stripes, Streams: 2, Seconds: res.Duration().Seconds()}, err
	})
	if err != nil {
		return nil, "", err
	}
	tb := metrics.NewTable("Extension: striped transfer with a disk-saturated source (1024 MB, 2 streams/stripe)",
		"stripes", "transfer time (s)")
	for _, r := range out {
		tb.AddRow(fmt.Sprintf("%d", r.Stripes), fmt.Sprintf("%.2f", r.Seconds))
	}
	return out, tb.String(), nil
}

// ScaleResult is one testbed size in the scaling extension.
type ScaleResult struct {
	Sites              int
	CostModelSeconds   float64
	RandomSeconds      float64
	ImprovementPercent float64
}

// randomGrid builds an N-site testbed: two hosts per site, a WAN ring plus
// random chords with varied capacity, delay and loss — the paper's future
// work #3 ("a dynamic and larger number of sites environment").
func randomGrid(engine *simulation.Engine, sites int, seed int64) (*cluster.Testbed, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := cluster.Config{}
	for i := 0; i < sites; i++ {
		site := fmt.Sprintf("site%02d", i)
		lanBps := 100e6 * float64(1+rng.Intn(10))
		hosts := make([]cluster.HostConfig, 2)
		for j := range hosts {
			// Three draws no field reads: Intn(n) consumes a number of
			// source values that depends on n, and the pins depend on the
			// stream.
			rng.Intn(2)
			rng.Intn(2000)
			rng.Intn(3)
			hosts[j] = cluster.HostConfig{
				Name: fmt.Sprintf("%s-h%d", site, j),
				Disk: cluster.DiskSpec{
					ReadBps:  (100 + 300*rng.Float64()) * 1e6,
					WriteBps: (80 + 240*rng.Float64()) * 1e6,
				},
			}
		}
		cfg.Sites = append(cfg.Sites, cluster.SiteConfig{
			Name:  site,
			LAN:   netsim.LinkConfig{CapacityBps: lanBps, Delay: 100 * time.Microsecond},
			Hosts: hosts,
		})
	}
	wanLink := func() netsim.LinkConfig {
		return netsim.LinkConfig{
			CapacityBps: (20 + 80*rng.Float64()) * 1e6,
			Delay:       time.Duration(2+rng.Intn(14)) * time.Millisecond,
			LossRate:    0.001 + 0.006*rng.Float64(),
		}
	}
	linked := map[[2]int]bool{}
	addWAN := func(a, b int) {
		if a == b {
			return
		}
		key := [2]int{a, b}
		if a > b {
			key = [2]int{b, a}
		}
		if linked[key] {
			return
		}
		linked[key] = true
		cfg.WAN = append(cfg.WAN, cluster.WANLink{
			From: fmt.Sprintf("site%02d", a),
			To:   fmt.Sprintf("site%02d", b),
			Link: wanLink(),
		})
	}
	for i := 0; i < sites; i++ {
		addWAN(i, (i+1)%sites)
	}
	// Random chords for path diversity (duplicates are skipped).
	for c := 0; c < sites/2; c++ {
		addWAN(rng.Intn(sites), rng.Intn(sites))
	}
	return cluster.New(engine, cfg)
}

// ExtensionScale grows the grid from 3 to 12 sites and compares cost-model
// selection against random selection for sequential fetches of a file
// replicated on one host per remote site.
func ExtensionScale(seed int64, workers int) ([]ScaleResult, string, error) {
	const fileSize = 256 * workload.MB
	const fetches = 5
	type point struct {
		sites  int
		random bool
	}
	var points []point
	for _, sites := range []int{3, 6, 9, 12} {
		points = append(points, point{sites, false}, point{sites, true})
	}
	vals, err := sweep(workers, "scale extension", points, func(p point) (float64, error) {
		tb, err := randomGrid(simulation.NewEngine(), p.sites, seed+int64(p.sites))
		if err != nil {
			return 0, err
		}
		env, err := envOn(tb)
		if err != nil {
			return 0, err
		}
		local := "site00-h0"
		var remotes []string
		for i := 1; i < p.sites; i++ {
			remotes = append(remotes, fmt.Sprintf("site%02d-h0", i))
		}
		if err := env.monitor(info.DeploymentConfig{Local: local, Remotes: remotes}); err != nil {
			return 0, err
		}
		var sel core.Selector = core.CostModelSelector{Weights: core.PaperWeights}
		if p.random {
			sel = core.NewRandomSelector(seed)
		}
		srv, _, err := env.selectFile("file-x", fileSize, nil, remotes, sel)
		if err != nil {
			return 0, err
		}
		ds, err := env.sequentialFetches(srv, local, env.Xfer.TransferFunc(simxfer.GridFTPOptions(0)),
			"file-x", fetches, 30*time.Second, nil)
		return meanSeconds(ds), err
	})
	if err != nil {
		return nil, "", err
	}
	var out []ScaleResult
	for i, p := range points {
		if !p.random {
			out = append(out, ScaleResult{Sites: p.sites, CostModelSeconds: vals[i]})
			continue
		}
		r := &out[len(out)-1]
		r.RandomSeconds = vals[i]
		r.ImprovementPercent = 100 * (r.RandomSeconds - r.CostModelSeconds) / r.RandomSeconds
	}
	tb := metrics.NewTable("Extension: selection quality as the grid grows (256 MB, 5 fetches)",
		"sites", "cost-model (s)", "random (s)", "improvement %")
	for _, r := range out {
		tb.AddRow(fmt.Sprintf("%d", r.Sites),
			fmt.Sprintf("%.2f", r.CostModelSeconds),
			fmt.Sprintf("%.2f", r.RandomSeconds),
			fmt.Sprintf("%.1f", r.ImprovementPercent))
	}
	return out, tb.String(), nil
}
