package netsim

import (
	"errors"
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// occEvent is one link-occupancy transition recorded by a Network while
// occupancy logging is on: claim when a link's active-flow count goes
// 0->1, release when it returns to 0.
type occEvent struct {
	at    time.Duration
	idx   int
	claim bool
}

// ErrCrossShardLink is returned (wrapped, with link and shard detail)
// when flows in two different shards occupy the same link in overlapping
// time — the one condition under which a sharded run could diverge from
// the sequential allocation.
var ErrCrossShardLink = errors.New("netsim: flows in different shards share a link")

// ShardedNetwork maps PR 8's flow components onto the shards of a
// simulation.ShardedEngine. Each shard holds a full mirror of the
// topology (built from the same config, so link indexes, iteration
// order and float arithmetic are identical), and every flow is started
// on exactly one shard — its owner. Intra-region flows belong to their
// region's shard; flows that cross a region boundary belong to a
// deterministically chosen boundary owner (shard 0). Because a flow's
// whole path allocates inside one mirror, the component/dirty machinery
// and the anchored water-fill arithmetic run unchanged, and per-flow
// records are bitwise identical to a sequential run of the same flows.
//
// Correctness rests on link-disjointness: flows owned by different
// shards must never occupy a link at the same time (they would
// water-fill against different views of it). ShardedNetwork does not
// assume that — it audits it. Every mirror logs link claim/release
// transitions, and a window-edge hook merges the logs in deterministic
// (time, release-before-claim, shard) order into a global owner table,
// failing the run with ErrCrossShardLink on any overlap. A release and
// a claim at the same instant are compatible (a zero-length overlap
// carries zero bytes), which is what lets consecutive windows hand a
// boundary link from one shard to another.
type ShardedNetwork struct {
	se            *simulation.ShardedEngine
	nets          []*Network
	regionOf      func(node string) string
	shardOfRegion func(region string) int

	// owner[idx] is the shard currently occupying link idx, -1 when free.
	// Touched only by the window-edge hook on the coordinator goroutine.
	owner  []int
	merged []shardOcc // scratch for the per-window merge
	audits uint64
}

// shardOcc is one occupancy transition tagged with its shard.
type shardOcc struct {
	occEvent
	shard int
}

// AttachSharded wires the mirrors to the coordinator: it validates that
// net i is driven by shard i and that all mirrors expose an identical
// link table, enables occupancy logging on every mirror, and registers
// the cross-shard link audit as a window-edge hook. regionOf maps any
// node name to its region and shardOfRegion maps a region to the shard
// its intra-region flows run on; OwnerShard combines them. Mirrors must
// not have active flows yet.
func AttachSharded(se *simulation.ShardedEngine, nets []*Network,
	regionOf func(node string) string, shardOfRegion func(region string) int) (*ShardedNetwork, error) {
	if se == nil {
		return nil, errors.New("netsim: AttachSharded: nil sharded engine")
	}
	if len(nets) != se.Shards() {
		return nil, fmt.Errorf("netsim: AttachSharded: %d networks for %d shards", len(nets), se.Shards())
	}
	if regionOf == nil || shardOfRegion == nil {
		return nil, errors.New("netsim: AttachSharded: nil region mapping")
	}
	for i, net := range nets {
		if net == nil {
			return nil, fmt.Errorf("netsim: AttachSharded: nil network %d", i)
		}
		if net.engine != se.Shard(i) {
			return nil, fmt.Errorf("netsim: AttachSharded: network %d is not driven by shard %d", i, i)
		}
		if len(net.active) != 0 {
			return nil, fmt.Errorf("netsim: AttachSharded: network %d already has %d active flows", i, len(net.active))
		}
		if len(net.linkList) != len(nets[0].linkList) {
			return nil, fmt.Errorf("netsim: AttachSharded: network %d has %d links, network 0 has %d",
				i, len(net.linkList), len(nets[0].linkList))
		}
		for k, l := range net.linkList {
			if ref := nets[0].linkList[k]; l.from != ref.from || l.to != ref.to {
				return nil, fmt.Errorf("netsim: AttachSharded: link %d is %s->%s in network %d but %s->%s in network 0",
					k, l.from, l.to, i, ref.from, ref.to)
			}
		}
	}
	sn := &ShardedNetwork{
		se:            se,
		nets:          nets,
		regionOf:      regionOf,
		shardOfRegion: shardOfRegion,
		owner:         make([]int, len(nets[0].linkList)),
	}
	for i := range sn.owner {
		sn.owner[i] = -1
	}
	for _, net := range nets {
		net.logOcc = true
	}
	se.OnWindowEdge(sn.audit)
	return sn, nil
}

// Shards returns the number of mirrors.
func (sn *ShardedNetwork) Shards() int { return len(sn.nets) }

// Net returns shard i's topology mirror. Flows owned by shard i start
// on it, from events scheduled on se.Shard(i).
func (sn *ShardedNetwork) Net(i int) *Network { return sn.nets[i] }

// OwnerShard returns the shard that must run a flow from src to dst:
// the endpoint region's shard when both ends share a region, the
// boundary owner (shard 0) when the flow crosses the region cut. The
// choice is deterministic in the endpoints alone, so every run — and
// every shard count — agrees on it.
func (sn *ShardedNetwork) OwnerShard(src, dst string) int {
	ra := sn.regionOf(src)
	if rb := sn.regionOf(dst); ra != rb {
		return 0
	}
	return sn.shardOfRegion(ra)
}

// Audits returns the number of window-edge occupancy audits executed.
func (sn *ShardedNetwork) Audits() uint64 { return sn.audits }

// audit is the window-edge hook: it merges every mirror's occupancy log
// in deterministic order and replays the transitions against the global
// owner table. Any overlap — a claim on a link another shard still
// holds — aborts the run.
func (sn *ShardedNetwork) audit(edge time.Duration) error {
	sn.merged = sn.merged[:0]
	for s, net := range sn.nets {
		for _, ev := range net.occLog {
			sn.merged = append(sn.merged, shardOcc{occEvent: ev, shard: s})
		}
		net.occLog = net.occLog[:0]
	}
	if len(sn.merged) == 0 {
		sn.audits++
		return nil
	}
	// Releases sort before claims at the same instant: a link may change
	// hands at a point in time (zero bytes flow during a zero-length
	// overlap), never over an interval.
	sortShardOcc(sn.merged)
	for _, ev := range sn.merged {
		cur := sn.owner[ev.idx]
		l := sn.nets[0].linkList[ev.idx]
		switch {
		case ev.claim && cur == -1:
			sn.owner[ev.idx] = ev.shard
		case ev.claim:
			return fmt.Errorf("%w: link %s->%s claimed by shard %d at %v while held by shard %d (window edge %v)",
				ErrCrossShardLink, l.from, l.to, ev.shard, ev.at, cur, edge)
		case cur == ev.shard:
			sn.owner[ev.idx] = -1
		default:
			return fmt.Errorf("netsim: occupancy audit inconsistency: link %s->%s released by shard %d at %v but owned by %d",
				l.from, l.to, ev.shard, ev.at, cur)
		}
	}
	sn.audits++
	return nil
}

// sortShardOcc orders transitions by (time, release-before-claim,
// shard, link). Insertion sort: per-window logs are tiny and almost
// sorted (each mirror logs in time order).
func sortShardOcc(a []shardOcc) {
	less := func(x, y shardOcc) bool {
		if x.at != y.at {
			return x.at < y.at
		}
		if x.claim != y.claim {
			return !x.claim
		}
		if x.shard != y.shard {
			return x.shard < y.shard
		}
		return x.idx < y.idx
	}
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && less(a[j], a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// RouteStats sums routing-work counters across all mirrors. With the
// sweep's ownership policy every Route call happens in exactly one
// mirror, so the sums equal a sequential run's counters.
func (sn *ShardedNetwork) RouteStats() RouteStats {
	var out RouteStats
	for _, net := range sn.nets {
		s := net.RouteStats()
		out.Queries += s.Queries
		out.TreeBuilds += s.TreeBuilds
		out.PathBuilds += s.PathBuilds
	}
	return out
}

// ReallocStats aggregates allocation-work counters across mirrors:
// cumulative counters sum, high-water marks take the max.
func (sn *ShardedNetwork) ReallocStats() ReallocStats {
	var out ReallocStats
	for _, net := range sn.nets {
		s := net.ReallocStats()
		out.Events += s.Events
		out.ComponentsDirtied += s.ComponentsDirtied
		out.Rounds += s.Rounds
		out.FlowsScanned += s.FlowsScanned
		out.FlowsEvaluated += s.FlowsEvaluated
		out.LinkScans += s.LinkScans
		out.Merges += s.Merges
		out.Splits += s.Splits
		out.Components += s.Components
		if s.MaxComponentFlows > out.MaxComponentFlows {
			out.MaxComponentFlows = s.MaxComponentFlows
		}
		if s.MaxRoundFlows > out.MaxRoundFlows {
			out.MaxRoundFlows = s.MaxRoundFlows
		}
	}
	return out
}
