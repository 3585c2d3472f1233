package traffic

import (
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/placement"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/simxfer"
	"github.com/hpclab/datagrid/internal/topo"
)

// Report is one run's streaming reduction: request accounting, transfer
// latency quantiles (seconds), goodput over the horizon, per-site load
// skew and the control loop's placement activity. All fields derive from
// integer accumulators or the order-independent sketch, so a Report is
// byte-identical across run repetitions.
type Report struct {
	// Requests is how many client arrivals were dispatched; Completed,
	// Failed and LocalHits partition their outcomes (a local hit is a
	// request whose best replica already sits on the requesting host —
	// served from local disk, no transfer). Attempts counts failover
	// attempts across all transfers (0 without a failover policy).
	Requests  int
	Completed int
	Failed    int
	LocalHits int
	Attempts  int
	// P50, P95 and P99 are transfer-latency quantiles in seconds.
	P50, P95, P99 float64
	// GoodputMbps is completed payload over the request horizon.
	GoodputMbps float64
	// SiteSkew is max/mean completed serves across serving sites.
	SiteSkew float64
	// Replications and Removals are the placement policy's completed
	// actions; Hot, Warm and Cold are its final epoch's class sizes. All
	// zero under PolicyNone.
	Replications int
	Removals     int
	Hot, Warm    int
	Cold         int
	// Selections and HostsScanned are the hierarchy's selection-work
	// counters.
	Selections   uint64
	HostsScanned uint64
}

// maxSources caps how many ranked candidates a failover request carries.
const maxSources = 4

// settleSlack bounds how long past the horizon the driver waits for
// in-flight transfers (stalled flows recover when their fault episodes
// end; failover transfers are bounded by attempt caps and timeouts).
const settleSlack = 12 * time.Hour

// Run executes the spec on one engine. The second argument was a shard
// count when the simulator was space-partitioned; it is accepted and
// ignored because the frozen benchmark (cmd/gridperf) still passes it.
func Run(spec Spec, _ int) (*Report, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	w, err := buildWorld(spec, simulation.NewEngine())
	if err != nil {
		return nil, err
	}
	return w.run()
}

// run drives a built world through the spec's horizon and settle tail.
func (w *world) run() (*Report, error) {
	spec := w.spec
	eng := w.Testbed.Engine()
	var err error
	var pol placement.Policy
	var c *collector
	var exec *gridExecutor
	switch spec.Policy {
	case PolicyNone:
		pol = placement.NoReplication{}
		c = newCollector(pol)
	case PolicyPopularity:
		c = newCollector(nil) // wired below; executor needs the collector
		exec = newGridExecutor(w, c)
		p, err := placement.NewPopularityPolicy(exec, placement.PopularityConfig{
			RegionOf:    topo.RegionOfHost,
			Regions:     len(w.Top.Regions),
			MinReplicas: spec.MinReplicas,
			MaxReplicas: spec.MaxReplicas,
		})
		if err != nil {
			return nil, err
		}
		pol = p
		c.policy = pol
	}

	gens := make([]*generator, len(w.Top.Regions))
	for r := range w.Top.Regions {
		if gens[r], err = newGenerator(w, r); err != nil {
			return nil, err
		}
	}

	// The epoch-pinned snapshot discipline: publish at each boundary
	// while the engine is stopped, rank against that frozen snapshot
	// until the next one.
	epochStart := time.Duration(0)
	if err := w.republish(epochStart); err != nil {
		return nil, err
	}

	// One policy serves the whole run: Submit copies it, and Rank reads
	// only the world. Rank filters into one buffer, which the transfer
	// reads before the next call.
	var failover *simxfer.FailoverPolicy
	if spec.Failover {
		var up []string
		failover = &simxfer.FailoverPolicy{
			Mode:           simxfer.FailoverReselect,
			MaxAttempts:    3,
			InitialBackoff: 2 * time.Second,
			MaxBackoff:     30 * time.Second,
			AttemptTimeout: 4 * time.Minute,
			Rank: func(_ time.Duration, alive []string) []string {
				up = up[:0]
				for _, h := range alive {
					if down, err := w.Testbed.HostDown(h); err == nil && !down {
						up = append(up, h)
					}
				}
				if len(up) == 0 {
					return alive
				}
				return up
			},
		}
	}
	done := c.done // one method value for every request

	// dispatch drains one region's buffered arrivals: rank each file on
	// the pinned epoch snapshot, then schedule the transfer one dispatch
	// interval after its arrival — always in the engine's future, spread
	// like the arrivals themselves.
	dispatch := func(g *generator) error {
		for _, rq := range g.take() {
			cands, err := w.Server.Rank(rq.file, epochStart)
			if err != nil {
				return fmt.Errorf("traffic: rank %s: %w", rq.file, err)
			}
			cands = nearestFirst(cands, rq.dst)
			// A replica already on the requesting host is a local hit:
			// served from disk, no transfer. Deeper candidates on the
			// destination are filtered so failover never "transfers" to
			// itself.
			if cands[0].Location.Host == rq.dst {
				c.submitted++
				c.localHits++
				if err := c.access(rq, rq.dst); err != nil {
					return err
				}
				continue
			}
			d := w.newDispatch()
			sources := d.sources[:0]
			for _, cand := range cands {
				if cand.Location.Host == rq.dst {
					continue
				}
				sources = append(sources, cand.Location.Host)
				if len(sources) == maxSources {
					break
				}
			}
			if !spec.Failover {
				sources = sources[:1]
			}
			if err := c.access(rq, sources[0]); err != nil {
				return err
			}
			d.req = simxfer.Request{
				Sources:  sources,
				Dst:      rq.dst,
				Bytes:    rq.bytes,
				Options:  spec.options(),
				Failover: failover,
				Done:     done,
			}
			c.submitted++
			c.inflight++
			if _, err := eng.ScheduleHandler(rq.at+spec.DispatchInterval, d); err != nil {
				return err
			}
		}
		return nil
	}

	for now := time.Duration(0); now < spec.Horizon; {
		now += spec.DispatchInterval
		if err := w.advance(now); err != nil {
			return nil, err
		}
		if now%spec.Epoch == 0 {
			if err := w.republish(now); err != nil {
				return nil, err
			}
			epochStart = now
			if exec != nil {
				exec.now = now
			}
			if err := pol.OnEpoch(now); err != nil {
				return nil, err
			}
		}
		for _, g := range gens {
			if err := dispatch(g); err != nil {
				return nil, err
			}
		}
	}
	for _, g := range gens {
		g.stop()
	}
	// Settle: the tail of in-flight transfers (including replication
	// copies) completes within bounded virtual time.
	deadline := spec.Horizon
	for c.inflight > 0 {
		deadline += 5 * time.Minute
		if deadline > spec.Horizon+settleSlack {
			return nil, fmt.Errorf("traffic: %d transfers still in flight at %v", c.inflight, deadline)
		}
		if err := w.advance(deadline); err != nil {
			return nil, err
		}
	}
	if err := c.balanced(); err != nil {
		return nil, err
	}

	st := pol.Stats()
	hs := w.Server.Stats()
	return &Report{
		Requests:     c.submitted,
		Completed:    c.completed,
		Failed:       c.failed,
		LocalHits:    c.localHits,
		Attempts:     c.attempts,
		P50:          c.quantile(0.50),
		P95:          c.quantile(0.95),
		P99:          c.quantile(0.99),
		GoodputMbps:  c.goodputMbps(spec.Horizon),
		SiteSkew:     c.skew(),
		Replications: st.Replications,
		Removals:     st.Removals,
		Hot:          st.Hot,
		Warm:         st.Warm,
		Cold:         st.Cold,
		Selections:   hs.Selections,
		HostsScanned: hs.HostsScanned,
	}, nil
}
