package traffic

import (
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/metrics"
	"github.com/hpclab/datagrid/internal/placement"
	"github.com/hpclab/datagrid/internal/simxfer"
	"github.com/hpclab/datagrid/internal/topo"
)

// collector is the streaming reduction of the result stream: latency
// quantiles via a mergeable log-bucket sketch, goodput and load skew via
// integer accumulators. Nothing per-request is retained, so a run's
// memory footprint is independent of its request count. Accumulators
// are integers so no float summation order exists to diverge.
type collector struct {
	latency *metrics.QuantileSketch

	submitted int
	completed int
	failed    int
	localHits int
	attempts  int
	inflight  int

	bytesDone int64
	// servedBySite counts completed serves per origin site — the load
	// skew input.
	servedBySite map[string]uint64

	policy placement.Policy
}

func newCollector(policy placement.Policy) *collector {
	return &collector{
		latency:      metrics.NewQuantileSketch(0.01),
		servedBySite: make(map[string]uint64),
		policy:       policy,
	}
}

// done is the transfer completion callback.
func (c *collector) done(r simxfer.Result) {
	c.inflight--
	c.attempts += len(r.Attempts)
	if r.Err != nil {
		c.failed++
		return
	}
	c.completed++
	c.bytesDone += r.Bytes
	c.latency.Add(r.Duration().Seconds())
	src := r.Src
	if src == "" && len(r.Sources) > 0 {
		src = r.Sources[0]
	}
	c.servedBySite[topo.SiteOfHost(src)]++
}

// access reports one dispatched request to the placement policy, at
// drain time.
func (c *collector) access(rq request, servedFrom string) error {
	return c.policy.OnAccess(placement.Access{
		Logical:    rq.file,
		ServedFrom: servedFrom,
		Client:     rq.dst,
		At:         rq.at,
	})
}

// balanced checks the run's accounting identities once the settle tail
// has drained: every dispatched request has exactly one outcome and
// nothing is still (or doubly) in flight.
func (c *collector) balanced() error {
	if c.submitted != c.completed+c.failed+c.localHits || c.inflight != 0 {
		return fmt.Errorf("traffic: accounting broken: %d requests != %d completed + %d failed + %d local hits, %d in flight",
			c.submitted, c.completed, c.failed, c.localHits, c.inflight)
	}
	return nil
}

// quantile returns the latency quantile in seconds, 0 when nothing
// completed.
func (c *collector) quantile(q float64) float64 {
	v, err := c.latency.Quantile(q)
	if err != nil {
		return 0
	}
	return v
}

// skew returns max/mean completed serves across the sites that served
// anything — 1.0 is perfectly even, higher is hotter.
func (c *collector) skew() float64 {
	if len(c.servedBySite) == 0 {
		return 0
	}
	var max, total uint64
	for _, n := range c.servedBySite {
		total += n
		if n > max {
			max = n
		}
	}
	mean := float64(total) / float64(len(c.servedBySite))
	return float64(max) / mean
}

// goodputMbps is completed payload over the request horizon.
func (c *collector) goodputMbps(horizon time.Duration) float64 {
	s := horizon.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(c.bytesDone) * 8 / 1e6 / s
}
