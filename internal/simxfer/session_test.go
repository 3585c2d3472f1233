package simxfer

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/simulation"
)

// islandBed is the paper testbed plus one host, castaway, on a site with
// no WAN link: known to the testbed, unreachable from everywhere else.
func islandBed(t *testing.T) (*simulation.Engine, *Transferrer) {
	t.Helper()
	cfg := cluster.PaperConfig()
	island := cfg.Sites[0]
	island.Name = "island"
	island.Hosts = append([]cluster.HostConfig(nil), island.Hosts[:1]...)
	island.Hosts[0].Name = "castaway"
	cfg.Sites = append(cfg.Sites, island)
	eng := simulation.NewEngine()
	tb, err := cluster.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(tb)
	if err != nil {
		t.Fatal(err)
	}
	return eng, tr
}

// A source with no route to the destination fails the Submit, under
// every scheduler, before anything reaches the engine — also when it is
// not the first source, which used to leave the first one's transfer
// running (static) or credit the castaway with chunks that never moved
// (dynamic).
func TestSubmitNoRouteSchedulesNothing(t *testing.T) {
	cases := []struct {
		name string
		req  Request
	}{
		{"plain", Request{Sources: []string{"castaway"}}},
		{"static", Request{Sources: []string{"hit0", "castaway"}}},
		{"dynamic", Request{Sources: []string{"hit0", "castaway"}, Scheme: SchemeDynamic}},
		{"failover", Request{Sources: []string{"castaway", "hit0"}, Failover: &FailoverPolicy{Mode: FailoverReselect}}},
	}
	for _, c := range cases {
		eng, tr := islandBed(t)
		c.req.Dst, c.req.Bytes, c.req.Options = "alpha1", 64*mb, GridFTPOptions(0)
		c.req.Done = func(r Result) { t.Errorf("%s: Done fired: %+v", c.name, r) }
		before := eng.Pending()
		if err := tr.Submit(c.req); !errors.Is(err, netsim.ErrNoRoute) {
			t.Errorf("%s: Submit = %v, want ErrNoRoute", c.name, err)
		}
		if got := eng.Pending(); got != before {
			t.Errorf("%s: %d events scheduled by a rejected Submit", c.name, got-before)
		}
		if err := eng.RunUntil(math.MaxInt64); err != nil {
			t.Fatal(err)
		}
	}
}

// A failover standby is not resolved at Submit (each resolution is a
// shortest-path tree on a big world); one with no route is a failed
// attempt when its turn comes, and the sequence moves on.
func TestFailoverUnroutableStandbyIsAFailedAttempt(t *testing.T) {
	eng, tr := islandBed(t)
	if _, err := eng.Schedule(10*time.Second, func(time.Duration) {
		if err := tr.tb.SetHostDown("hit0", true); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	res := submitAndRun(t, eng, tr, Request{
		Sources: []string{"hit0", "castaway", "lz02"}, Dst: "alpha1", Bytes: 256 * mb,
		Options:  GridFTPOptions(4),
		Failover: &FailoverPolicy{Mode: FailoverReselect},
	})
	if res.Err != nil || len(res.Attempts) != 3 {
		t.Fatalf("err=%v attempts=%+v, want hit0 crashed, castaway unroutable, lz02 completed", res.Err, res.Attempts)
	}
	if a := res.Attempts[1]; a.Source != "castaway" || a.Outcome != AttemptFailed || !errors.Is(a.Err, netsim.ErrNoRoute) || a.Ended != a.Started {
		t.Fatalf("standby attempt = %+v, want an immediate ErrNoRoute failure", a)
	}
	if res.Src != "lz02" || res.Attempts[2].Outcome != AttemptCompleted {
		t.Fatalf("res = %+v, want lz02 to finish the job", res)
	}
}

// A session that could not start its channels reports the cause through
// Result.Err and credits no bytes to its server.
func TestFailedSessionCountsNoBytes(t *testing.T) {
	for _, scheme := range []Scheme{SchemeStatic, SchemeDynamic} {
		_, _, tr := newBed(t)
		var res Result
		dones := 0
		x, err := tr.admit(Request{
			Sources: []string{"hit0", "lz02"}, Dst: "alpha1", Bytes: 2 * ChunkBytes,
			Options: GridFTPOptions(0), Scheme: scheme,
			Done: func(r Result) { res = r; dones++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		x.open, x.chunks, x.next = 3, 3, 3
		boom := errors.New("boom")
		x.landed(x.newSession(x.req.Sources[0:1], ChunkBytes, 1), nil)
		x.landed(x.newSession(x.req.Sources[1:2], ChunkBytes, 1), boom)
		x.landed(x.newSession(x.req.Sources[0:1], ChunkBytes, 1), nil) // a straggler
		if dones != 1 || !errors.Is(res.Err, boom) {
			t.Fatalf("%v: dones=%d err=%v, want one Done carrying the cause", scheme, dones, res.Err)
		}
		if res.BytesBySource["hit0"] != ChunkBytes || res.BytesBySource["lz02"] != 0 {
			t.Fatalf("%v: by-source = %v, want only the bytes that moved", scheme, res.BytesBySource)
		}
	}
}
