package experiments

import (
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/info"
	"github.com/hpclab/datagrid/internal/metrics"
	"github.com/hpclab/datagrid/internal/placement"
	"github.com/hpclab/datagrid/internal/replica"
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
func ExtensionReplication(seed int64, workers int) ([]ReplicationResult, string, error) {
	strategies := []replicationStrategy{
		{"no-replication", func(*siteExecutor) (placement.Policy, error) {
			return placement.NoReplication{}, nil
		}},
		{fmt.Sprintf("threshold(%d)", placement.Threshold), func(x *siteExecutor) (placement.Policy, error) {
			return placement.NewThresholdPolicy(x, x.env.siteOf)
		}},
	}
	out, err := sweep(workers, "replication extension", strategies, func(st replicationStrategy) (ReplicationResult, error) {
		return replicationPoint(seed, st)
	})
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

// String names the strategy in a failing point's error.
func (st replicationStrategy) String() string { return st.name }

// siteExecutor carries out a placement policy's decisions on the paper
// testbed, where regions are sites and the catalog's regions are the
// env's sites. A new replica is the Globus replica management operation: a
// GridFTP copy from the file's first registered location to the site's
// first host, registered in the catalog when it lands.
type siteExecutor struct {
	env      *Env
	catalog  *replica.ShardedCatalog
	transfer replica.Transfer
}

var _ placement.Executor = (*siteExecutor)(nil)

// HoldingRegions reports the sites holding the file, sorted.
func (x *siteExecutor) HoldingRegions(logical string) ([]string, error) {
	return x.catalog.RegionsWith(logical)
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
func replicationPoint(seed int64, st replicationStrategy) (ReplicationResult, error) {
	const fetches = 8
	const fileSize = 512 * workload.MB
	const local = "gridhit3"
	env, err := NewEnv(seed, false)
	if err != nil {
		return ReplicationResult{}, err
	}
	// Monitor from the HIT user's perspective; candidates are the
	// initial holder and the site storage host replicas may land on.
	err = env.monitor(info.DeploymentConfig{
		Local:   local,
		Remotes: []string{"alpha4", "hit0"},
	})
	if err != nil {
		return ReplicationResult{}, err
	}
	srv, catalog, err := env.selectFile("file-a", fileSize, nil, []string{"alpha4"}, nil)
	if err != nil {
		return ReplicationResult{}, err
	}
	transfer := env.Xfer.TransferFunc(simxfer.GridFTPOptions(0))
	policy, err := st.mk(&siteExecutor{env: env, catalog: catalog, transfer: transfer})
	if err != nil {
		return ReplicationResult{}, err
	}
	ds, err := env.sequentialFetches(srv, local, transfer, "file-a", fetches, time.Minute, func(r core.FetchResult) error {
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
