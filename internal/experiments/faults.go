package experiments

import (
	"fmt"
	"slices"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/faults"
	"github.com/hpclab/datagrid/internal/simxfer"
	"github.com/hpclab/datagrid/internal/workload"
)

// FaultsResult is one (fault intensity, retry policy) grid point of the
// fault-tolerance extension.
type FaultsResult struct {
	// Intensity scales the number of injected episodes; 0 is the
	// fault-free control row.
	Intensity int
	// Policy names the simxfer retry mode under test.
	Policy string
	// Completed and Failed partition the transfer sequence.
	Completed int
	Failed    int
	// MeanSeconds averages the completed transfers' end-to-end times
	// (including backoff and failed attempts before success).
	MeanSeconds float64
	// Attempts is the total attempt count across all transfers.
	Attempts int
}

// Fault-tolerance experiment shape. The file is large enough that a WAN
// transfer spans a meaningful window (a mid-flight crash is likely at
// higher intensities) and the sequence long enough that several episodes
// land inside it.
const (
	faultsTransfers = 8
	faultsGap       = 45 * time.Second
	faultsFileBytes = 256 * workload.MB
	faultsHorizon   = 30 * time.Minute
)

// faultsReplicaHosts are the replica holders and the crash/degrade
// victims: the two candidates reachable only over WAN links. With the
// same-site alpha4 copy out of the picture every download crosses a
// faultable WAN path, which is the scenario failover exists for — the
// LAN copy would otherwise absorb nearly every pick in ~10 seconds.
var faultsReplicaHosts = []string{"hit0", "lz02"}

// faultsPlan draws the episode schedule for one intensity level. The
// seed depends on the experiment seed and the intensity only — all three
// retry policies at a given intensity replay the identical grid history,
// so completion-rate differences are attributable to the policy alone.
func faultsPlan(seed int64, intensity int) (*faults.Plan, error) {
	if intensity <= 0 {
		return &faults.Plan{}, nil
	}
	return faults.GeneratePlan(faults.Config{
		Seed:           seed + int64(intensity)*7919,
		Horizon:        faultsHorizon,
		MeanDuration:   2 * time.Minute,
		LinkFlaps:      intensity,
		HostCrashes:    2 * intensity,
		DiskDegrades:   intensity,
		MonitorOutages: intensity,
		Hosts:          faultsReplicaHosts,
		Links: [][2]string{
			{cluster.SwitchNode(cluster.SiteTHU), cluster.SwitchNode(cluster.SiteHIT)},
			{cluster.SwitchNode(cluster.SiteTHU), cluster.SwitchNode(cluster.SiteLiZen)},
			{cluster.SwitchNode(cluster.SiteHIT), cluster.SwitchNode(cluster.SiteLiZen)},
		},
	})
}

// faultsPolicy builds the per-transfer failover policy for one retry
// mode. Reselection ranks the surviving candidates through the
// cost-model selection server so failover lands on the best healthy
// replica, not merely a different one.
func faultsPolicy(mode simxfer.RetryMode, srv *core.SelectionServer, alive func(string) bool) *simxfer.FailoverPolicy {
	pol := &simxfer.FailoverPolicy{
		Mode:           mode,
		MaxAttempts:    4,
		InitialBackoff: 2 * time.Second,
		MaxBackoff:     30 * time.Second,
		AttemptTimeout: 8 * time.Minute,
	}
	if mode == simxfer.FailoverReselect {
		pol.Rank = func(now time.Duration, candidates []string) []string {
			ranked, err := srv.RankHosts("file-a", now, alive)
			// The ranking's order, over the candidates still allowed.
			ranked = slices.DeleteFunc(ranked, func(h string) bool { return !slices.Contains(candidates, h) })
			if err != nil || len(ranked) == 0 {
				return candidates
			}
			return ranked
		}
	}
	return pol
}

// faultsPoint runs one grid point: a private world with monitoring, the
// intensity's fault plan installed, and a sequence of failover-aware
// downloads of file-a to alpha1 under the given retry mode.
func faultsPoint(seed int64, intensity int, mode simxfer.RetryMode) (FaultsResult, error) {
	env, err := NewEnv(seed, true)
	if err != nil {
		return FaultsResult{}, err
	}
	plan, err := faultsPlan(seed, intensity)
	if err != nil {
		return FaultsResult{}, err
	}
	inj, err := faults.NewInjector(env.Testbed, env.Deploy)
	if err != nil {
		return FaultsResult{}, err
	}
	if err := inj.Install(plan); err != nil {
		return FaultsResult{}, err
	}
	srv, _, err := env.selectFile("file-a", faultsFileBytes, fileAAttrs, faultsReplicaHosts, nil)
	if err != nil {
		return FaultsResult{}, err
	}
	if err := env.Engine.RunUntil(Warmup); err != nil {
		return FaultsResult{}, err
	}

	alive := func(h string) bool {
		down, err := env.Testbed.HostDown(h)
		return err == nil && !down
	}
	res := FaultsResult{Intensity: intensity, Policy: mode.String()}
	totalSec := 0.0
	// Attempt caps and timeouts bound every transfer.
	err = env.sequence("fault sequence", faultsTransfers, faultsGap, func(_ int, done func(error)) error {
		// Rank by the cost-model snapshot alone, as the historical client
		// did: during a monitor outage the snapshot is stale, so a dead
		// replica can look best. Liveness awareness is exactly what the
		// failover policy adds (the reselect Rank callback filters on it).
		ranked, err := srv.RankHosts("file-a", env.Engine.Now(), nil)
		if err != nil {
			return err
		}
		if len(ranked) == 0 {
			res.Failed++
			done(nil)
			return nil
		}
		return env.Xfer.Submit(simxfer.Request{
			Sources:  ranked,
			Dst:      "alpha1",
			Bytes:    faultsFileBytes,
			Options:  simxfer.GridFTPOptions(4),
			Failover: faultsPolicy(mode, srv, alive),
			Done: func(r simxfer.Result) {
				res.Attempts += len(r.Attempts)
				if r.Err != nil {
					res.Failed++
				} else {
					res.Completed++
					totalSec += r.Duration().Seconds()
				}
				done(nil)
			},
		})
	})
	if err != nil {
		return FaultsResult{}, err
	}
	if res.Completed > 0 {
		res.MeanSeconds = totalSec / float64(res.Completed)
	}
	return res, nil
}

// ExtensionFaults sweeps fault intensity against the three retry
// policies the unified transfer API offers: the historical no-retry
// behavior, blind retry of the same replica, and failover with
// cost-model reselection. Each grid point is an independent world; the
// fault plan at a given intensity is identical across policies.
func ExtensionFaults(seed int64, workers int) ([]FaultsResult, string, error) {
	type point struct {
		intensity int
		mode      simxfer.RetryMode
	}
	var points []point
	for _, intensity := range []int{0, 1, 2, 3} {
		for _, mode := range []simxfer.RetryMode{simxfer.NoRetry, simxfer.RetrySame, simxfer.FailoverReselect} {
			points = append(points, point{intensity, mode})
		}
	}
	out, err := sweep(workers, "fault tolerance", points, func(p point) (FaultsResult, error) {
		return faultsPoint(seed, p.intensity, p.mode)
	})
	if err != nil {
		return nil, "", err
	}
	return out, faultsColumns.table(fmt.Sprintf("Extension: fault tolerance (%d x %d MB downloads to alpha1 per point)",
		faultsTransfers, faultsFileBytes/workload.MB), out), nil
}

// faultsColumns are the fault-tolerance sweep's columns.
var faultsColumns = columns[FaultsResult]{
	key: func(r FaultsResult) string { return fmt.Sprintf("faults/i%d/%s", r.Intensity, r.Policy) },
	cols: []column[FaultsResult]{
		{"intensity", "%d", "intensity", "%d", false, func(r FaultsResult) any { return r.Intensity }},
		{"policy", "%s", "policy", "%s", false, func(r FaultsResult) any { return r.Policy }},
		{"completed", fmt.Sprintf("%%d/%d", faultsTransfers), "completed", "%d", true, func(r FaultsResult) any { return r.Completed }},
		{"failed", "%d", "failed", "%d", false, func(r FaultsResult) any { return r.Failed }},
		{"mean time (s)", "%.2f", "mean_sec", "%.3f", true, func(r FaultsResult) any { return r.MeanSeconds }},
		{"attempts", "%d", "attempts", "%d", true, func(r FaultsResult) any { return r.Attempts }},
	},
}
