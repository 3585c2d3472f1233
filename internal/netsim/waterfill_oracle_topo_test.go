package netsim_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/topo"
)

// TestWaterfillOracleTopoWorlds is the differential sweep over seeded topo
// worlds: the partition-equivalence scripts (staggered cross-region
// transfers, background shifts, WAN fault schedules) replayed with the
// production water-fill diffed against referenceWaterfill on every live
// component after every scripted action and at fixed checkpoints. Pool
// mode folds the world into one component, which is where link-bound and
// mixed rounds over many flows come from.
func TestWaterfillOracleTopoWorlds(t *testing.T) {
	want := netsim.OracleCases()
	cases := 0
	for seed := int64(1); cases < want; seed++ {
		spec := topo.Spec{Seed: seed, Regions: 2 + int(seed%3), SitesPerRegion: 2, ClustersPerSite: 1, HostsPerCluster: 2 + int(seed%2)}
		tp, err := topo.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		acts := equivScript(t, tp, seed*17, 48, seed%2 == 0)
		for _, pool := range []bool{false, true} {
			eng := simulation.NewEngine()
			tb, err := tp.Build(eng)
			if err != nil {
				t.Fatal(err)
			}
			n := tb.Network()
			n.SetPoolMode(pool)
			diff := func(when string) {
				k, err := netsim.OracleDiffAll(n)
				if err != nil {
					t.Fatalf("seed %d pool=%v %s: %v", seed, pool, when, err)
				}
				cases += k
			}
			for _, a := range acts {
				a := a
				if _, err := eng.Schedule(a.at, func(time.Duration) {
					var err error
					switch a.kind {
					case 0:
						_, err = n.StartFlow(a.src, a.dst, a.size, a.opts, nil)
						if errors.Is(err, netsim.ErrPathDown) {
							err = nil // a FailOnDown start inside a fault window
						}
					case 1:
						err = n.SetBackgroundLoad(a.src, a.dst, a.frac)
					case 2, 3:
						err = n.SetLinkDown(a.src, a.dst, a.kind == 2)
					}
					if err != nil {
						t.Errorf("action %+v: %v", a, err)
					}
					diff(fmt.Sprintf("after action kind %d", a.kind))
				}); err != nil {
					t.Fatal(err)
				}
			}
			for at := time.Second; at <= 60*time.Second; at += time.Second {
				if err := eng.RunUntil(at); err != nil {
					t.Fatal(err)
				}
				diff("checkpoint")
			}
		}
	}
	t.Logf("%d components diffed", cases)
}

// TestWaterfillWorkPlanetRegime asserts the saving where it is claimed, on
// a scaled-down planet world: cross-region transfers over 1 MiB windows
// are window-limited, not link-limited, so components fix one flow per
// round and the flow paths the water-fill actually touches must stay an
// order of magnitude below the round structure's reference cost. The
// events themselves no longer reach the water-fill in this regime (the
// cap-bound path answers them), so every start is followed by a full
// recompute: the counters below are those fills and nothing else.
func TestWaterfillWorkPlanetRegime(t *testing.T) {
	tp, err := topo.Generate(topo.Spec{Seed: 42, Regions: 4, SitesPerRegion: 3, ClustersPerSite: 1, HostsPerCluster: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng := simulation.NewEngine()
	tb, err := tp.Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	n := tb.Network()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		rs, rd := rng.Intn(len(tp.Regions)), rng.Intn(len(tp.Regions)-1)
		if rd >= rs {
			rd++ // always cross-region: WAN round trips keep flows alive
		}
		srcs, dsts := tp.HostsByRegion[tp.Regions[rs]], tp.HostsByRegion[tp.Regions[rd]]
		src, dst := srcs[rng.Intn(len(srcs))], dsts[rng.Intn(len(dsts))]
		size := int64(1+rng.Intn(2)) << 20
		if _, err := eng.Schedule(time.Duration(rng.Int63n(int64(20*time.Second))), func(time.Duration) {
			if _, err := n.StartFlow(src, dst, size, netsim.FlowOptions{WindowBytes: 1 << 20}, nil); err != nil {
				t.Errorf("StartFlow %s->%s: %v", src, dst, err)
			}
			n.Reallocate()
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := n.ReallocStats()
	t.Logf("events %d rounds %d scanned %d evaluated %d link scans %d max component %d",
		s.Events, s.Rounds, s.FlowsScanned, s.FlowsEvaluated, s.LinkScans, s.MaxComponentFlows)
	if s.Rounds == 0 || s.FlowsScanned < 20*s.Rounds {
		t.Fatalf("world too quiet to judge: %d rounds scanning %d flows", s.Rounds, s.FlowsScanned)
	}
	if s.FlowsEvaluated*10 > s.FlowsScanned {
		t.Fatalf("FlowsEvaluated %d exceeds a tenth of FlowsScanned %d", s.FlowsEvaluated, s.FlowsScanned)
	}
}
