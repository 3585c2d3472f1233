package experiments

import (
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/info"
	"github.com/hpclab/datagrid/internal/metrics"
	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/nws"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/simxfer"
	"github.com/hpclab/datagrid/internal/workload"
)

// LatencyResult is one selector's outcome in the latency-factor ablation.
type LatencyResult struct {
	Selector    string
	MeanSeconds float64
	// FarPicks counts how often the high-bandwidth/high-RTT replica was
	// chosen.
	FarPicks int
}

// latencyEnv builds and monitors the scenario where the paper's three
// factors mislead: the "far" replica sits behind a fat 100 Mb/s pipe with
// 80 ms RTT (high bandwidth percentage, but un-tuned TCP windows and
// session setup are RTT-bound), while the "near" replica has a thinner,
// loaded 50 Mb/s pipe 4 ms away.
func latencyEnv(seed int64) (*Env, error) {
	lan := netsim.LinkConfig{CapacityBps: 1e9, Delay: 50 * time.Microsecond}
	disk := cluster.DiskSpec{ReadBps: 4e8, WriteBps: 3.2e8}
	host := func(n string) []cluster.HostConfig {
		return []cluster.HostConfig{{Name: n, Disk: disk}}
	}
	tb, err := cluster.New(simulation.NewEngine(), cluster.Config{
		Sites: []cluster.SiteConfig{
			{Name: "Home", LAN: lan, Hosts: host("client")},
			{Name: "Far", LAN: lan, Hosts: host("far")},
			{Name: "Near", LAN: lan, Hosts: host("near")},
		},
		WAN: []cluster.WANLink{
			{From: "Home", To: "Far", Link: netsim.LinkConfig{CapacityBps: 100e6, Delay: 40 * time.Millisecond}},
			{From: "Home", To: "Near", Link: netsim.LinkConfig{CapacityBps: 50e6, Delay: 2 * time.Millisecond}},
		},
	})
	if err != nil {
		return nil, err
	}
	// Load the near pipe so its bandwidth percentage trails the far one.
	err = tb.Network().StartBackground(cluster.SwitchNode("Near"), cluster.SwitchNode("Home"),
		netsim.BackgroundConfig{Mean: 0.25, Volatility: 0.03, Reversion: 0.3}, seed+5)
	if err != nil {
		return nil, err
	}
	env, err := envOn(tb)
	if err != nil {
		return nil, err
	}
	// Long probes with tuned windows, so the far path's measured
	// bandwidth reflects its steady state rather than slow start — the
	// very regime in which the plain model is misled.
	if err := env.monitor(info.DeploymentConfig{
		Local:          "client",
		Remotes:        []string{"far", "near"},
		NWSProbeBytes:  64 << 20,
		NWSProbeWindow: 8 << 20,
	}); err != nil {
		return env, err
	}
	// This is the one experiment that reads latency, so it runs the
	// latency sensors itself: one per remote, probing every nws.ProbePeriod.
	for _, s := range []struct {
		remote string
		seed   int64
	}{{"far", seed + 2}, {"near", seed + 4}} {
		if _, err := nws.NewLatencySensor(env.Engine, env.Deploy.NWS, tb.Network(), s.remote, "client", s.seed); err != nil {
			return env, err
		}
	}
	return env, nil
}

// AblationLatency compares the plain three-factor cost model against the
// latency-aware extension on a small-file workload, where per-session
// round trips and un-tuned TCP windows make RTT, not bandwidth, the
// binding constraint.
func AblationLatency(seed int64, workers int) ([]LatencyResult, string, error) {
	const fetches = 6
	const fileSize = 2 * workload.MB
	selectors := []core.Selector{
		core.CostModelSelector{Weights: core.PaperWeights},
		core.LatencyAwareSelector{Weights: core.PaperWeights},
	}
	out, err := sweep(workers, "latency ablation", selectors, func(sel core.Selector) (LatencyResult, error) {
		env, err := latencyEnv(seed)
		if err != nil {
			return LatencyResult{}, err
		}
		srv, _, err := env.selectFile("small-file", fileSize, nil, []string{"far", "near"}, sel)
		if err != nil {
			return LatencyResult{}, err
		}
		farPicks := 0
		transfer := env.Xfer.TransferFunc(simxfer.GridFTPOptions(0))
		countingTransfer := func(srcHost, srcPath, dstHost, dstPath string, bytes int64, done func(error)) error {
			if srcHost == "far" {
				farPicks++
			}
			return transfer(srcHost, srcPath, dstHost, dstPath, bytes, done)
		}
		ds, err := env.sequentialFetches(srv, "client", countingTransfer, "small-file", fetches, 30*time.Second, nil)
		return LatencyResult{Selector: sel.Name(), MeanSeconds: meanSeconds(ds), FarPicks: farPicks}, err
	})
	if err != nil {
		return nil, "", err
	}
	tb := metrics.NewTable(
		"Ablation: latency as a fourth system factor (2 MB files, far=100Mb/s@80ms vs near=50Mb/s@4ms)",
		"selector", "mean fetch (s)", "far picks")
	for _, r := range out {
		tb.AddRow(r.Selector, fmt.Sprintf("%.2f", r.MeanSeconds), fmt.Sprintf("%d", r.FarPicks))
	}
	return out, tb.String(), nil
}
