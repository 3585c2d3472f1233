package experiments

import (
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/placement"
	"github.com/hpclab/datagrid/internal/replica"
)

// TestSiteExecutorRegistersLandedCopies: a replica enters the catalog only
// when its copy completes, stamped with the completion time, and a failed
// copy leaves the catalog as it was.
func TestSiteExecutorRegistersLandedCopies(t *testing.T) {
	env, err := NewEnv(seed, false)
	if err != nil {
		t.Fatal(err)
	}
	cat := replica.NewSharded(env.siteOf)
	if err := cat.CreateLogical(replica.LogicalFile{Name: "f", SizeBytes: 10}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("f", replica.Location{Host: "alpha4", Path: "/data/f"}); err != nil {
		t.Fatal(err)
	}
	var calls []string
	var land func(error)
	x := &siteExecutor{env: env, catalog: cat, transfer: func(src, srcPath, dst, dstPath string, n int64, done func(error)) error {
		calls = append(calls, src+":"+srcPath+"->"+dst+":"+dstPath)
		land = done
		return nil
	}}
	holders := func() []string {
		t.Helper()
		locs, err := cat.Locations("f")
		if err != nil {
			t.Fatal(err)
		}
		var hosts []string
		for _, l := range locs {
			hosts = append(hosts, l.Host)
		}
		return hosts
	}
	var outcome error
	for _, copyErr := range []error{errors.New("link down"), nil} {
		if err := x.AddReplica("f", cluster.SiteHIT, func(err error) { outcome = err }); err != nil {
			t.Fatal(err)
		}
		if got := holders(); !slices.Equal(got, []string{"alpha4"}) {
			t.Fatalf("copy in flight already registered: %v", got)
		}
		if err := env.Engine.RunUntil(env.Engine.Now() + 5*time.Second); err != nil {
			t.Fatal(err)
		}
		land(copyErr)
		if !errors.Is(outcome, copyErr) {
			t.Fatalf("done got %v, want %v", outcome, copyErr)
		}
	}
	if want := "alpha4:/data/f->hit0:/replicas/f"; len(calls) != 2 || calls[0] != want || calls[1] != want {
		t.Fatalf("transfers = %v, want two of %s", calls, want)
	}
	locs, err := cat.Locations("f")
	if err != nil || len(locs) != 2 || locs[1] != (replica.Location{Host: "hit0", Path: "/replicas/f", RegisteredAt: 10 * time.Second}) {
		t.Fatalf("locations = %v, %v; want the landed copy at 10s only", locs, err)
	}
	regions, err := x.HoldingRegions("f")
	if err != nil || !slices.Equal(regions, []string{cluster.SiteHIT, cluster.SiteTHU}) {
		t.Fatalf("HoldingRegions = %v, %v", regions, err)
	}
	if err := x.RemoveReplica("f", cluster.SiteHIT); err == nil {
		t.Fatal("RemoveReplica should refuse")
	}
}

type failingPolicy struct{ placement.NoReplication }

var errPolicy = errors.New("policy failed")

func (failingPolicy) OnAccess(placement.Access) error { return errPolicy }

// TestReplicationPointSurfacesPolicyErrors: a policy that fails ends the
// point with its error instead of a row that silently reads 0 replications.
func TestReplicationPointSurfacesPolicyErrors(t *testing.T) {
	st := replicationStrategy{"failing", func(*siteExecutor) (placement.Policy, error) { return failingPolicy{}, nil }}
	if _, err := replicationPoint(seed, st); !errors.Is(err, errPolicy) {
		t.Fatalf("replicationPoint = %v, want %v", err, errPolicy)
	}
}
