package netsim_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/topo"
)

// The contract of the partitioned allocator: because max-min water-filling
// decomposes exactly over link-disjoint components (see
// docs/PERFORMANCE.md), the partitioned allocator must produce the same
// rates — and therefore the same event stream, completion times and
// delivered bytes, bit for bit — as the global algorithm. The global
// answer is one water-fill of every active flow, run after every engine
// event from the state the event found (netsim.StepGlobal). These tests
// drive seeded internal/topo worlds with staggered cross-region transfers,
// background traffic shifts, and fault schedules (WAN link failures and
// recoveries, with and without FailOnDown flows), and compare every flow
// exactly at every event.

// equivAction is one scheduled disturbance of a scenario's script.
type equivAction struct {
	at   time.Duration
	kind int // 0 start, 1 bg, 2 down, 3 up
	src  string
	dst  string // bg/down/up: directed link endpoints
	size int64
	opts netsim.FlowOptions
	frac float64
}

// equivScript builds the deterministic action schedule for a topology.
func equivScript(t *testing.T, tp *topo.Topology, seed int64, flows int, faults bool) []equivAction {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var hosts []string
	for _, r := range tp.Regions {
		hosts = append(hosts, tp.HostsByRegion[r]...)
	}
	if len(hosts) < 2 {
		t.Fatal("topology too small")
	}
	var acts []equivAction
	for i := 0; i < flows; i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		if src == dst {
			continue
		}
		opts := netsim.FlowOptions{WindowBytes: 64 << 10}
		switch rng.Intn(4) {
		case 0:
			opts.WindowBytes = 1 << 20
		case 1:
			opts.OverheadFraction = 0.01
		case 2:
			opts.RateCapBps = 50e6
		}
		opts.FailOnDown = faults && rng.Intn(3) == 0
		acts = append(acts, equivAction{
			at:   time.Duration(rng.Int63n(int64(30 * time.Second))),
			kind: 0,
			src:  src, dst: dst,
			size: 64<<10 + rng.Int63n(32<<20),
			opts: opts,
		})
	}
	// Background shifts and (optionally) fault episodes on WAN links.
	wan := tp.Config.WAN
	for i := 0; i < len(wan); i++ {
		w := wan[rng.Intn(len(wan))]
		acts = append(acts, equivAction{
			at:   time.Duration(rng.Int63n(int64(40 * time.Second))),
			kind: 1,
			src:  cluster.SwitchNode(w.From), dst: cluster.SwitchNode(w.To),
			frac: 0.1 + 0.7*rng.Float64(),
		})
	}
	if faults {
		for i := 0; i < len(wan)/2+1; i++ {
			w := wan[rng.Intn(len(wan))]
			downAt := time.Duration(rng.Int63n(int64(25 * time.Second)))
			acts = append(acts, equivAction{
				at: downAt, kind: 2,
				src: cluster.SwitchNode(w.From), dst: cluster.SwitchNode(w.To),
			})
			acts = append(acts, equivAction{
				at: downAt + time.Duration(rng.Int63n(int64(10*time.Second))) + time.Second, kind: 3,
				src: cluster.SwitchNode(w.From), dst: cluster.SwitchNode(w.To),
			})
		}
	}
	return acts
}

// equivRun replays the script on a fresh build of the topology, every
// event held to the global water-fill, and returns the flows it started.
func equivRun(t *testing.T, tp *topo.Topology, acts []equivAction) []*netsim.Flow {
	t.Helper()
	eng := simulation.NewEngine()
	tb, err := tp.Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	n := tb.Network()
	var flows []*netsim.Flow
	for _, a := range acts {
		a := a
		_, err := eng.Schedule(a.at, func(time.Duration) {
			switch a.kind {
			case 0:
				f, err := n.StartFlow(a.src, a.dst, a.size, a.opts, nil)
				if err != nil {
					// A FailOnDown start during a fault window is
					// legitimately rejected.
					if errors.Is(err, netsim.ErrPathDown) {
						return
					}
					t.Errorf("StartFlow %s->%s: %v", a.src, a.dst, err)
					return
				}
				flows = append(flows, f)
			case 1:
				if err := n.SetBackgroundLoad(a.src, a.dst, a.frac); err != nil {
					t.Errorf("SetBackgroundLoad %s->%s: %v", a.src, a.dst, err)
				}
			case 2:
				if err := n.SetLinkDown(a.src, a.dst, true); err != nil {
					t.Errorf("SetLinkDown %s->%s: %v", a.src, a.dst, err)
				}
			case 3:
				if err := n.SetLinkDown(a.src, a.dst, false); err != nil {
					t.Errorf("SetLinkUp %s->%s: %v", a.src, a.dst, err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// A fixed horizon (not a full drain) keeps the tail of the script's
	// long transfers in the comparison.
	if err := netsim.StepGlobal(n, 90*time.Second); err != nil {
		t.Fatalf("partitioned allocator diverged from the global water-fill: %v", err)
	}
	if len(flows) == 0 {
		t.Fatal("scenario started no flows")
	}
	return flows
}

// TestPartitionedEquivalenceTopoWorlds pins rate/event-stream equality of
// the partitioned allocator against the global algorithm over seeded topo
// worlds, without faults.
func TestPartitionedEquivalenceTopoWorlds(t *testing.T) {
	for _, tc := range []struct {
		spec  topo.Spec
		flows int
	}{
		{topo.Spec{Seed: 7, Regions: 3, SitesPerRegion: 2, ClustersPerSite: 1, HostsPerCluster: 2}, 48},
		{topo.Spec{Seed: 21, Regions: 5, SitesPerRegion: 2, ClustersPerSite: 2, HostsPerCluster: 2}, 80},
	} {
		t.Run(fmt.Sprintf("regions=%d", tc.spec.Regions), func(t *testing.T) {
			tp, err := topo.Generate(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			equivRun(t, tp, equivScript(t, tp, tc.spec.Seed*31, tc.flows, false))
		})
	}
}

// TestPartitionedEquivalenceFaultSchedules repeats the equivalence check
// with WAN fault schedules layered on: link failures and recoveries,
// stalling flows and FailOnDown failures included.
func TestPartitionedEquivalenceFaultSchedules(t *testing.T) {
	for _, seed := range []int64{11, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := topo.Spec{Seed: seed, Regions: 4, SitesPerRegion: 2, ClustersPerSite: 1, HostsPerCluster: 3}
			tp, err := topo.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			failed := 0
			for _, f := range equivRun(t, tp, equivScript(t, tp, seed*131, 64, true)) {
				if f.State() == netsim.FlowFailed {
					failed++
				}
			}
			if failed == 0 {
				t.Log("fault schedule produced no FailOnDown failures; equivalence still checked")
			}
		})
	}
}
