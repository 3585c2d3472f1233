package netsim_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/topo"
)

// TestCapBoundOracle is the step-wise differential sweep of the cap-bound
// path and the on-read rebuild (capbound_oracle_test.go has the checker),
// over the regimes that matter: the planet workload's (WAN round trips,
// 1 MiB windows, one stream), the metro workload's (64 KiB windows, two
// streams sharing a cap) — both on seeded topo worlds — and two tight ones
// on the water-fill sweep's hand-made networks, where links bind, caps tie
// and demand hovers at the margin, with one stream and with two. Streams
// that start together tick in one slow-start event, so an event can move
// several caps before its one drain: the metro regime must have batched
// ticks, and the tight-streams regime batches whose drain water-filled.
// -oracle.cases is the number of engine events checked, split evenly;
// every regime must have taken both paths.
func TestCapBoundOracle(t *testing.T) {
	regimes := []netsim.StormRegime{
		{Name: "planet", WindowBytes: 1 << 20, Streams: 1, Horizon: 20 * time.Second},
		{Name: "metro", WindowBytes: 64 << 10, Streams: 2, Horizon: 5 * time.Second},
		{Name: "tight", Streams: 1, Horizon: 3 * time.Second, Tight: true},
		{Name: "tight-streams", Streams: 2, Horizon: 3 * time.Second, Tight: true},
	}
	for _, reg := range regimes {
		t.Run(reg.Name, func(t *testing.T) {
			want := (netsim.OracleCases() + len(regimes) - 1) / len(regimes)
			var tally netsim.StormTally
			for seed := int64(1); tally.Events < want; seed++ {
				rng := rand.New(rand.NewSource(seed * 7919))
				var n *netsim.Network
				var hosts []string
				if reg.Tight {
					n, hosts = netsim.OracleNet(t, rng)
				} else {
					tp, err := topo.Generate(topo.Spec{Seed: seed, Regions: 2 + int(seed%3), SitesPerRegion: 2, ClustersPerSite: 1, HostsPerCluster: 2 + int(seed%2)})
					if err != nil {
						t.Fatal(err)
					}
					tb, err := tp.Build(simulation.NewEngine())
					if err != nil {
						t.Fatal(err)
					}
					n = tb.Network()
					for _, r := range tp.Regions {
						hosts = append(hosts, tp.HostsByRegion[r]...)
					}
				}
				if err := netsim.CapBoundStorm(n, rng, hosts, reg, 40, &tally); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			t.Logf("%d events, %d components diffed: %d cap-bound, %d water-filled, %d rebuilt on read; %d batched ramp events, %d of them water-filled",
				tally.Events, tally.Components, tally.Fast, tally.Filled, tally.Rebuilds, tally.Batched, tally.BatchedFills)
			if tally.Fast == 0 || tally.Filled == 0 || tally.Rebuilds == 0 {
				t.Fatalf("one path went untested: %d cap-bound, %d water-filled, %d rebuilt on read", tally.Fast, tally.Filled, tally.Rebuilds)
			}
			if (reg.Name == "metro" && tally.Batched == 0) || (reg.Name == "tight-streams" && tally.BatchedFills == 0) {
				t.Fatalf("batched ticks went untested: %d batched ramp events, %d of them water-filled", tally.Batched, tally.BatchedFills)
			}
		})
	}
}
