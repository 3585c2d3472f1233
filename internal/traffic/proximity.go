package traffic

import (
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
	var buf [16]uint8
	tiers := buf[:0]
	for i := range cands {
		h := cands[i].Location.Host
		tier := uint8(3)
		switch {
		case h == requester:
			tier = 0
		case topo.SiteOfHost(h) == site:
			tier = 1
		case topo.RegionOfHost(h) == region:
			tier = 2
		}
		tiers = append(tiers, tier)
	}
	// A stable insertion sort on the tiers, each computed once above: a
	// ranking holds one candidate per region, a handful.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && tiers[j-1] > tiers[j]; j-- {
			tiers[j-1], tiers[j] = tiers[j], tiers[j-1]
			cands[j-1], cands[j] = cands[j], cands[j-1]
		}
	}
	return cands
}
