package experiments

import (
	"fmt"
	"slices"
	"time"

	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/info"
	"github.com/hpclab/datagrid/internal/metrics"
	"github.com/hpclab/datagrid/internal/placement"
	"github.com/hpclab/datagrid/internal/replica"
	"github.com/hpclab/datagrid/internal/runner"
	"github.com/hpclab/datagrid/internal/simxfer"
	"github.com/hpclab/datagrid/internal/workload"
)

// ReplicationResult compares a placement strategy's fetch times before and
// after dynamic replication can kick in.
type ReplicationResult struct {
	Strategy string
	// EarlySeconds is the mean of the first three fetches (always remote).
	EarlySeconds float64
	// LateSeconds is the mean of the remaining fetches.
	LateSeconds float64
	// Replications is how many dynamic replicas were created.
	Replications int
}

// ExtensionReplication evaluates dynamic replica placement: a user at HIT
// (gridhit3) repeatedly fetches a file that initially lives only at THU.
// With the threshold policy, the third access triggers replication to the
// HIT site, and later fetches are served across the 1 Gb/s LAN instead of
// the 100 Mb/s WAN.
func ExtensionReplication(seed int64, opts ...Option) ([]ReplicationResult, string, error) {
	const fetches = 8
	const fileSize = 512 * workload.MB
	const local = "gridhit3"
	cfg := buildConfig(opts)

	strategies := []replicationStrategy{
		{"no-replication", func(*siteExecutor) (placement.Policy, error) {
			return placement.NoReplication{}, nil
		}},
		{"threshold(3)", func(x *siteExecutor) (placement.Policy, error) {
			return placement.NewThresholdPolicy(x, placement.ThresholdConfig{Threshold: 3, RegionOf: x.siteOf})
		}},
	}

	var jobs []runner.Job[ReplicationResult]
	for _, st := range strategies {
		jobs = append(jobs, runner.Job[ReplicationResult]{
			Name: "replication/" + st.name,
			Run: func() (ReplicationResult, error) {
				return replicationPoint(seed, st, fetches, fileSize, local)
			},
		})
	}
	out, err := runPoints(cfg, jobs)
	if err != nil {
		return nil, "", err
	}
	tb := metrics.NewTable(
		"Extension: dynamic replica placement (512 MB, user at HIT, file initially at THU)",
		"strategy", "fetches 1-3 mean (s)", "fetches 4-8 mean (s)", "replications")
	for _, r := range out {
		tb.AddRow(r.Strategy, fmt.Sprintf("%.2f", r.EarlySeconds),
			fmt.Sprintf("%.2f", r.LateSeconds), fmt.Sprintf("%d", r.Replications))
	}
	return out, tb.String(), nil
}

// replicationStrategy names one placement policy and builds it over a
// private world's executor.
type replicationStrategy struct {
	name string
	mk   func(x *siteExecutor) (placement.Policy, error)
}

// siteExecutor carries out a placement policy's decisions on the paper
// testbed, where regions are sites. A new replica is the Globus replica
// management operation: a GridFTP copy from the file's first registered
// location to the site's first host, registered in the catalog when it
// lands.
type siteExecutor struct {
	env      *Env
	catalog  *replica.Catalog
	transfer replica.Transfer
}

var _ placement.Executor = (*siteExecutor)(nil)

// siteOf maps a host to its site; hosts outside the testbed have none.
func (x *siteExecutor) siteOf(host string) string {
	h, err := x.env.Testbed.Host(host)
	if err != nil {
		return ""
	}
	return h.Site()
}

// HoldingRegions reports the sites holding the file, sorted.
func (x *siteExecutor) HoldingRegions(logical string) ([]string, error) {
	hosts, err := x.catalog.HostsWith(logical)
	if err != nil {
		return nil, err
	}
	var sites []string
	for _, h := range hosts {
		if s := x.siteOf(h); s != "" {
			sites = append(sites, s)
		}
	}
	slices.Sort(sites)
	return slices.Compact(sites), nil
}

// AddReplica copies the file to /replicas/<file> on the site's first host.
func (x *siteExecutor) AddReplica(logical, site string, done func(error)) error {
	lf, err := x.catalog.Logical(logical)
	if err != nil {
		return err
	}
	locs, err := x.catalog.Locations(logical)
	if err != nil {
		return err
	}
	hosts, err := x.env.Testbed.SiteHosts(site)
	if err != nil {
		return err
	}
	dst := replica.Location{Host: hosts[0].Name(), Path: "/replicas/" + logical}
	return x.transfer(locs[0].Host, locs[0].Path, dst.Host, dst.Path, lf.SizeBytes, func(err error) {
		if err == nil {
			dst.RegisteredAt = x.env.Engine.Now()
			err = x.catalog.Register(logical, dst)
		}
		done(err)
	})
}

// RemoveReplica refuses: the experiment only ever adds replicas.
func (x *siteExecutor) RemoveReplica(logical, site string) error {
	return fmt.Errorf("experiments: replication experiment cannot remove %s from %s", logical, site)
}

// replicationPoint runs one placement strategy's full fetch sequence in
// a private world.
func replicationPoint(seed int64, st replicationStrategy, fetches int, fileSize int64, local string) (ReplicationResult, error) {
	env, err := NewEnv(seed, false)
	if err != nil {
		return ReplicationResult{}, err
	}
	// Monitor from the HIT user's perspective; candidates are the
	// initial holder and the site storage host replicas may land on.
	dep, err := info.Deploy(env.Testbed, info.DeploymentConfig{
		Local:   local,
		Remotes: []string{"alpha4", "hit0"},
		Seed:    seed + 7,
	})
	if err != nil {
		return ReplicationResult{}, err
	}
	env.Deploy = dep
	catalog := replica.NewCatalog()
	if err := catalog.CreateLogical(replica.LogicalFile{Name: "file-a", SizeBytes: fileSize}); err != nil {
		return ReplicationResult{}, err
	}
	if err := catalog.Register("file-a", replica.Location{Host: "alpha4", Path: "/data/file-a"}); err != nil {
		return ReplicationResult{}, err
	}
	policy, err := st.mk(&siteExecutor{env: env, catalog: catalog, transfer: env.Xfer.TransferFunc(simxfer.GridFTPOptions(0))})
	if err != nil {
		return ReplicationResult{}, err
	}
	srv, err := core.NewSelectionServer(catalog, dep.Server, paperWeights(), nil)
	if err != nil {
		return ReplicationResult{}, err
	}
	app, err := core.NewApplication(local,
		srv, env.Xfer.TransferFunc(simxfer.GridFTPOptions(0)), env.Engine)
	if err != nil {
		return ReplicationResult{}, err
	}
	if err := env.Engine.RunUntil(Warmup); err != nil {
		return ReplicationResult{}, err
	}
	ds, err := sequentialFetches(env, app, "file-a", fetches, time.Minute, func(r core.FetchResult) error {
		return policy.OnAccess(placement.Access{
			Logical:    "file-a",
			ServedFrom: r.Chosen.Location.Host,
			Client:     local,
			At:         env.Engine.Now(),
		})
	})
	if err != nil {
		return ReplicationResult{}, err
	}
	return ReplicationResult{
		Strategy:     st.name,
		EarlySeconds: meanSeconds(ds[:3]),
		LateSeconds:  meanSeconds(ds[3:]),
		Replications: policy.Stats().Replications,
	}, nil
}
