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
	"github.com/hpclab/datagrid/internal/runner"
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
func ExtensionStriped(seed int64, opts ...Option) ([]StripedResult, string, error) {
	cfg := buildConfig(opts)
	var jobs []runner.Job[StripedResult]
	for _, stripes := range []int{1, 2, 4} {
		jobs = append(jobs, runner.Job[StripedResult]{
			Name: fmt.Sprintf("striped/%d", stripes),
			Run: func() (StripedResult, error) {
				env, err := NewEnv(seed, false)
				if err != nil {
					return StripedResult{}, err
				}
				h, err := env.Testbed.Host("alpha4")
				if err != nil {
					return StripedResult{}, err
				}
				// Attach an I/O-heavy job: unlike base load (which the
				// synthetic load process keeps rewriting), job load
				// persists for the whole transfer.
				if _, err := h.AddJob(0.2, 0.65); err != nil {
					return StripedResult{}, err
				}
				res, err := env.MeasureAt(Warmup, "alpha4", "alpha1", 1024*workload.MB, simxfer.Options{
					Protocol: simxfer.ProtoGridFTPModeE, Streams: 2, Stripes: stripes,
				})
				if err != nil {
					return StripedResult{}, err
				}
				return StripedResult{Stripes: stripes, Streams: 2, Seconds: seconds(res.Duration())}, nil
			},
		})
	}
	out, err := runPoints(cfg, jobs)
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
			hosts[j] = cluster.HostConfig{
				Name:  fmt.Sprintf("%s-h%d", site, j),
				CPU:   cluster.CPUSpec{Model: "sim", Cores: 1 + rng.Intn(2), MHz: 900 + float64(rng.Intn(2000))},
				MemMB: 256 << rng.Intn(3),
				Disk: cluster.DiskSpec{
					CapacityGB: 40,
					ReadBps:    (100 + 300*rng.Float64()) * 1e6,
					WriteBps:   (80 + 240*rng.Float64()) * 1e6,
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
	return cluster.New(engine, seed, cfg)
}

// ExtensionScale grows the grid from 3 to 12 sites and compares cost-model
// selection against random selection for sequential fetches of a file
// replicated on one host per remote site.
func ExtensionScale(seed int64, opts ...Option) ([]ScaleResult, string, error) {
	const fileSize = 256 * workload.MB
	const fetches = 5
	cfg := buildConfig(opts)
	siteCounts := []int{3, 6, 9, 12}
	var jobs []runner.Job[float64]
	for _, sites := range siteCounts {
		run := func(selector core.Selector) (float64, error) {
			engine := simulation.NewEngine()
			tb, err := randomGrid(engine, sites, seed+int64(sites))
			if err != nil {
				return 0, err
			}
			local := "site00-h0"
			var remotes []string
			for i := 1; i < sites; i++ {
				remotes = append(remotes, fmt.Sprintf("site%02d-h0", i))
			}
			dep, err := info.Deploy(tb, info.DeploymentConfig{
				Local: local, Remotes: remotes, Seed: seed,
			})
			if err != nil {
				return 0, err
			}
			cat, err := oneFileCatalog("file-x", fileSize, nil, remotes)
			if err != nil {
				return 0, err
			}
			srv, err := core.NewSelectionServer(cat, dep.Server, paperWeights(), selector)
			if err != nil {
				return 0, err
			}
			xf, err := simxfer.New(tb)
			if err != nil {
				return 0, err
			}
			app, err := core.NewApplication(local,
				srv, xf.TransferFunc(simxfer.GridFTPOptions(0)), engine)
			if err != nil {
				return 0, err
			}
			if err := engine.RunUntil(Warmup); err != nil {
				return 0, err
			}
			env := &Env{Engine: engine, Testbed: tb, Xfer: xf}
			ds, err := sequentialFetches(env, app, "file-x", fetches, 30*time.Second, nil)
			if err != nil {
				return 0, err
			}
			return meanSeconds(ds), nil
		}
		jobs = append(jobs,
			runner.Job[float64]{
				Name: fmt.Sprintf("scale/%dsites/cost-model", sites),
				Run: func() (float64, error) {
					return run(core.CostModelSelector{Weights: paperWeights()})
				},
			},
			runner.Job[float64]{
				Name: fmt.Sprintf("scale/%dsites/random", sites),
				Run: func() (float64, error) {
					return run(core.NewRandomSelector(seed))
				},
			})
	}
	vals, err := runPoints(cfg, jobs)
	if err != nil {
		return nil, "", err
	}
	var out []ScaleResult
	for i, sites := range siteCounts {
		cm, rnd := vals[2*i], vals[2*i+1]
		out = append(out, ScaleResult{
			Sites:              sites,
			CostModelSeconds:   cm,
			RandomSeconds:      rnd,
			ImprovementPercent: 100 * (rnd - cm) / rnd,
		})
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
