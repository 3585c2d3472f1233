// Package topo generates seeded, deterministic planet-scale grid
// topologies: regions of sites of clusters of hosts, wired with
// realistic WAN fan-out and latency/bandwidth tiers, plus a
// replica-placement pass that fills a catalog with replicas spread
// across regions.
//
// The paper's testbed is 3 sites; the ROADMAP north-star is hundreds of
// sites and tens of thousands of hosts. This package is the factory for
// those worlds: the same Spec and seed always produce byte-identical
// cluster.Config output, so experiments built on generated topologies
// stay reproducible.
//
// Naming is hierarchical and parseable: region "r03", site "r03s07",
// cluster "r03s07c1" (one cluster = one cluster.SiteConfig), host
// "r03s07c1h09". RegionOfHost recovers the region from any generated
// host or switch name — the shard key for replica.NewSharded and the
// aggregation key for hierarchical selection.
//
// Link tiers, top down (jitter is seeded and deterministic):
//
//	backbone  region hub <-> region hub   10 Gb/s   20–100 ms   loss 1e-4
//	region    site hub   <-> region hub  2.5 Gb/s    2–10 ms    loss 1e-5
//	site      cluster sw <-> site hub     10 Gb/s   0.5–2 ms    loss 1e-6
//	LAN       host       <-> cluster sw    1 Gb/s  0.2–0.5 ms   loss 1e-6
//
// The backbone is a ring over the region hubs plus seeded chords, so
// inter-region routes have realistic multi-hop structure instead of a
// full mesh.
package topo

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/replica"
	"github.com/hpclab/datagrid/internal/simulation"
)

// Spec declares the shape of a generated topology. All counts are exact,
// not means: Regions*SitesPerRegion sites, and so on down the hierarchy.
type Spec struct {
	// Seed drives every random draw (link jitter, host specs, backbone
	// chords, replica placement). Same Spec -> same topology.
	Seed int64
	// Regions is the number of top-level regions (each gets a hub).
	Regions int
	// SitesPerRegion is the number of sites in each region.
	SitesPerRegion int
	// ClustersPerSite is the number of clusters (cluster.SiteConfig
	// units, each with its own switch) at each site.
	ClustersPerSite int
	// HostsPerCluster is the number of hosts behind each cluster switch.
	HostsPerCluster int
}

func (s Spec) validate() error {
	if s.Regions <= 0 || s.SitesPerRegion <= 0 || s.ClustersPerSite <= 0 || s.HostsPerCluster <= 0 {
		return fmt.Errorf("topo: all Spec counts must be positive, got %+v", s)
	}
	if s.Regions > 100 || s.SitesPerRegion > 100 {
		return fmt.Errorf("topo: Spec exceeds the r%%02d/s%%02d naming width, got %+v", s)
	}
	return nil
}

// Sites returns the total site count the Spec generates.
func (s Spec) Sites() int { return s.Regions * s.SitesPerRegion }

// Clusters returns the total cluster (SiteConfig) count.
func (s Spec) Clusters() int { return s.Sites() * s.ClustersPerSite }

// Hosts returns the total host count.
func (s Spec) Hosts() int { return s.Clusters() * s.HostsPerCluster }

// Topology is a generated world: the cluster.Config to build it and the
// region structure the scale layers (sharded catalog, hierarchical
// selection) key on.
type Topology struct {
	Spec   Spec
	Config cluster.Config
	// Regions lists the region names, sorted.
	Regions []string
	// HostsByRegion maps region -> its host names in generation order
	// (which is also lexicographic, by construction).
	HostsByRegion map[string][]string
	// HubSwitch maps region -> the netsim node name of its hub switch
	// (the natural observer vantage for per-region monitoring).
	HubSwitch map[string]string
}

func regionName(r int) string { return fmt.Sprintf("r%02d", r) }
func clusterName(r, s, c int) string {
	return fmt.Sprintf("r%02ds%02dc%d", r, s, c)
}

// RegionOfHost extracts the region from any generated host, cluster or
// switch name ("r03s07c1h09" -> "r03", "switch.r03s07c1" -> "r03").
// Names not produced by this package return "" — callers feeding the
// result to replica.NewSharded get a dedicated "" shard rather than a
// panic.
func RegionOfHost(name string) string {
	name = strings.TrimPrefix(name, "switch.")
	if len(name) < 3 || name[0] != 'r' {
		return ""
	}
	for i := 1; i < 3; i++ {
		if name[i] < '0' || name[i] > '9' {
			return ""
		}
	}
	return name[:3]
}

// SiteOfHost extracts the region+site prefix from any generated host,
// cluster or switch name ("r03s07c1h09" -> "r03s07"). Names not
// produced by this package return "".
func SiteOfHost(name string) string {
	name = strings.TrimPrefix(name, "switch.")
	if len(name) < 6 || name[0] != 'r' || name[3] != 's' {
		return ""
	}
	for _, i := range []int{1, 2, 4, 5} {
		if name[i] < '0' || name[i] > '9' {
			return ""
		}
	}
	return name[:6]
}

// jitter returns base plus a uniform draw in [0, spread).
func jitter(rng *rand.Rand, base, spread time.Duration) time.Duration {
	return base + time.Duration(rng.Int63n(int64(spread)))
}

// Generate builds the topology for spec. The draw order is fixed
// (regions, then sites, then clusters, then hosts, then backbone
// chords), so output is deterministic for a given Spec.
func Generate(spec Spec) (*Topology, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	t := &Topology{
		Spec:          spec,
		HostsByRegion: make(map[string][]string, spec.Regions),
		HubSwitch:     make(map[string]string, spec.Regions),
	}
	// regionHub[r] / siteHub[r][s] are the cluster (SiteConfig) names
	// whose switches act as hubs for the tier above them.
	regionHub := make([]string, spec.Regions)
	for r := 0; r < spec.Regions; r++ {
		region := regionName(r)
		t.Regions = append(t.Regions, region)
		for s := 0; s < spec.SitesPerRegion; s++ {
			siteHub := ""
			for c := 0; c < spec.ClustersPerSite; c++ {
				cname := clusterName(r, s, c)
				sc := cluster.SiteConfig{
					Name: cname,
					LAN: netsim.LinkConfig{
						CapacityBps: 1e9,
						Delay:       jitter(rng, 200*time.Microsecond, 300*time.Microsecond),
						LossRate:    1e-6,
					},
				}
				for h := 0; h < spec.HostsPerCluster; h++ {
					hname := fmt.Sprintf("%sh%02d", cname, h)
					// Two draws no field reads: Intn(n) consumes a number
					// of source values that depends on n, and the pins and
					// the planet/metro digests depend on the stream.
					rng.Intn(3)
					rng.Intn(3)
					sc.Hosts = append(sc.Hosts, cluster.HostConfig{
						Name: hname,
						Disk: cluster.DiskSpec{
							ReadBps:  400e6 + float64(rng.Intn(5))*100e6,
							WriteBps: 300e6 + float64(rng.Intn(4))*100e6,
						},
					})
					t.HostsByRegion[region] = append(t.HostsByRegion[region], hname)
				}
				t.Config.Sites = append(t.Config.Sites, sc)
				if c == 0 {
					siteHub = cname
				} else {
					// Cluster switch -> site hub uplink.
					t.Config.WAN = append(t.Config.WAN, cluster.WANLink{
						From: cname, To: siteHub,
						Link: netsim.LinkConfig{
							CapacityBps: 10e9,
							Delay:       jitter(rng, 500*time.Microsecond, 1500*time.Microsecond),
							LossRate:    1e-6,
						},
					})
				}
			}
			if s == 0 {
				regionHub[r] = siteHub
				t.HubSwitch[region] = cluster.SwitchNode(siteHub)
			} else {
				// Site hub -> region hub uplink.
				t.Config.WAN = append(t.Config.WAN, cluster.WANLink{
					From: siteHub, To: regionHub[r],
					Link: netsim.LinkConfig{
						CapacityBps: 2.5e9,
						Delay:       jitter(rng, 2*time.Millisecond, 8*time.Millisecond),
						LossRate:    1e-5,
					},
				})
			}
		}
	}
	// Backbone: a ring over the region hubs plus seeded chords (~one
	// extra long-haul link per three regions) for WAN fan-out.
	backbone := func(a, b int) {
		t.Config.WAN = append(t.Config.WAN, cluster.WANLink{
			From: regionHub[a], To: regionHub[b],
			Link: netsim.LinkConfig{
				CapacityBps: 10e9,
				Delay:       jitter(rng, 20*time.Millisecond, 80*time.Millisecond),
				LossRate:    1e-4,
			},
		})
	}
	if spec.Regions > 1 {
		for r := 0; r < spec.Regions; r++ {
			next := (r + 1) % spec.Regions
			if next > r || spec.Regions > 2 && r == spec.Regions-1 {
				backbone(r, next)
			}
		}
		// Chords skip adjacent and wraparound pairs (the ring already has
		// those) and each distinct pair at most once — netsim rejects
		// duplicate links.
		chords := make(map[[2]int]bool)
		for i := 0; i < spec.Regions/3; i++ {
			a := rng.Intn(spec.Regions)
			b := rng.Intn(spec.Regions)
			if a > b {
				a, b = b, a
			}
			if d := b - a; d > 1 && d < spec.Regions-1 && !chords[[2]int{a, b}] {
				chords[[2]int{a, b}] = true
				backbone(a, b)
			}
		}
	}
	return t, nil
}

// Build realizes the topology as a running testbed on engine.
func (t *Topology) Build(engine *simulation.Engine) (*cluster.Testbed, error) {
	return cluster.New(engine, t.Config)
}

// BoundaryLink is one WAN link whose endpoints live in different
// regions — by construction these are exactly the backbone links (ring
// plus chords) between region hubs.
type BoundaryLink struct {
	From, To string // cluster names, as in cluster.WANLink
	Regions  [2]string
	Delay    time.Duration // one-way latency
}

// BoundaryCut returns the region→region boundary links of the topology
// — the links a fault plan flaps — in the deterministic Config.WAN
// order. The second result, the minimum one-way delay across them, was
// the lookahead of the space-partitioned engine; nothing in the tree
// reads it any more, and it stays only because the frozen benchmark
// (cmd/gridperf) destructures three results. A single-region topology
// has no cut and returns an error.
func (t *Topology) BoundaryCut() ([]BoundaryLink, time.Duration, error) {
	var cut []BoundaryLink
	var min time.Duration
	for _, w := range t.Config.WAN {
		ra, rb := RegionOfHost(w.From), RegionOfHost(w.To)
		if ra == rb {
			continue
		}
		cut = append(cut, BoundaryLink{
			From: w.From, To: w.To,
			Regions: [2]string{ra, rb},
			Delay:   w.Link.Delay,
		})
		if len(cut) == 1 || w.Link.Delay < min {
			min = w.Link.Delay
		}
	}
	if len(cut) == 0 {
		return nil, 0, fmt.Errorf("topo: %d-region topology has no boundary cut", t.Spec.Regions)
	}
	return cut, min, nil
}

// Registrar is the catalog write surface the placement pass needs; both
// *replica.Catalog and *replica.ShardedCatalog satisfy it.
type Registrar interface {
	CreateLogical(replica.LogicalFile) error
	Register(name string, loc replica.Location) error
}

// PlaceFiles runs the replica-placement pass: it creates `files` logical
// entries named "lfn:d<i>" of sizeBytes each and registers `replicas`
// copies of each in distinct regions — a seeded home region plus its
// successors, one random host per region.
// Placement draws come from a private RNG derived from Spec.Seed, so the
// catalog contents are deterministic and independent of how many draws
// Generate consumed.
func (t *Topology) PlaceFiles(reg Registrar, files, replicas int, sizeBytes int64) error {
	if files < 0 || replicas <= 0 {
		return fmt.Errorf("topo: need files >= 0 and replicas > 0, got %d/%d", files, replicas)
	}
	if replicas > len(t.Regions) {
		return fmt.Errorf("topo: %d replicas need %d distinct regions, have %d",
			replicas, replicas, len(t.Regions))
	}
	if sizeBytes <= 0 {
		return errors.New("topo: sizeBytes must be positive")
	}
	rng := rand.New(rand.NewSource(t.Spec.Seed + 1))
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("lfn:d%d", i)
		if err := reg.CreateLogical(replica.LogicalFile{Name: name, SizeBytes: sizeBytes}); err != nil {
			return err
		}
		home := rng.Intn(len(t.Regions))
		for rep := 0; rep < replicas; rep++ {
			region := t.Regions[(home+rep)%len(t.Regions)]
			hosts := t.HostsByRegion[region]
			host := hosts[rng.Intn(len(hosts))]
			if err := reg.Register(name, replica.Location{
				Host: host,
				Path: "/grid/" + region + "/" + name,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}
