package traffic

import (
	"slices"

	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/topo"
)

// nearestFirst reorders ranked candidates by network proximity to the
// requesting host — same host, then same site, then same region, then
// everything else — preserving the selection hierarchy's score order
// within each tier. The hierarchy ranks each region's replicas against
// that region's monitoring snapshot, but it is requester-agnostic:
// scores say which replica is healthiest, not which is near this
// client. On a WAN topology the client-side tiering is what turns a
// freshly replicated intra-region copy into an actually shorter
// transfer — the paper's client-view selection applied at the request
// plane — and it is also what gives the dynamic-replication control
// loop a latency signal to improve at all.
func nearestFirst(cands []core.Candidate, requester string) []core.Candidate {
	site := topo.SiteOfHost(requester)
	region := topo.RegionOfHost(requester)
	tier := func(c core.Candidate) int {
		h := c.Location.Host
		switch {
		case h == requester:
			return 0
		case topo.SiteOfHost(h) == site:
			return 1
		case topo.RegionOfHost(h) == region:
			return 2
		}
		return 3
	}
	slices.SortStableFunc(cands, func(a, b core.Candidate) int {
		return tier(a) - tier(b)
	})
	return cands
}
