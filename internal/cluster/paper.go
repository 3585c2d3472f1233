package cluster

import (
	"time"

	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/simulation"
)

// Site and host names of the paper's testbed (§4).
const (
	SiteTHU   = "THU"   // Tunghai University, Taichung City
	SiteLiZen = "LiZen" // Li-Zen High School, Taichung County
	SiteHIT   = "HIT"   // Hsiuping Institute of Technology, Taichung County
)

const (
	mbps = 1e6
	gbps = 1e9
)

// PaperConfig returns the three-site testbed of the paper:
//
//   - THU: four dual AthlonMP 2.0 GHz, 1 GB RAM, 60 GB HD, 1 Gb/s LAN
//   - Li-Zen: four Celeron 900 MHz, 256 MB RAM, 10 GB HD, 30 Mb/s network
//   - HIT: four P4 2.8 GHz, 512 MB RAM, 80 GB HD, 1 Gb/s LAN
//
// Only the disk rates and the links enter the model: CPU state is the
// hosts' load walks, and nothing reads a clock rate, core count,
// memory size or disk capacity, so the config does not carry them.
//
// The paper gives per-site link rates but not WAN characteristics; the WAN
// numbers below are chosen to be plausible for the 2005 Taiwanese academic
// network (TANet) and — more importantly — to exhibit the behaviours the
// paper measures: the THU<->HIT path is fast enough that FTP and GridFTP
// are near-identical, and the THU<->Li-Zen path is a 30 Mb/s bottleneck
// with enough loss that a single un-tuned TCP stream cannot fill it.
func PaperConfig() Config {
	thuDisk := DiskSpec{ReadBps: 400 * mbps, WriteBps: 320 * mbps}
	lzDisk := DiskSpec{ReadBps: 160 * mbps, WriteBps: 120 * mbps}
	hitDisk := DiskSpec{ReadBps: 440 * mbps, WriteBps: 360 * mbps}

	mkHosts := func(names []string, disk DiskSpec) []HostConfig {
		out := make([]HostConfig, len(names))
		for i, n := range names {
			out[i] = HostConfig{Name: n, Disk: disk}
		}
		return out
	}

	return Config{
		Sites: []SiteConfig{
			{
				Name:  SiteTHU,
				LAN:   netsim.LinkConfig{CapacityBps: gbps, Delay: 50 * time.Microsecond},
				Hosts: mkHosts([]string{"alpha1", "alpha2", "alpha3", "alpha4"}, thuDisk),
			},
			{
				Name:  SiteLiZen,
				LAN:   netsim.LinkConfig{CapacityBps: 30 * mbps, Delay: 100 * time.Microsecond},
				Hosts: mkHosts([]string{"lz01", "lz02", "lz03", "lz04"}, lzDisk),
			},
			{
				Name:  SiteHIT,
				LAN:   netsim.LinkConfig{CapacityBps: gbps, Delay: 50 * time.Microsecond},
				Hosts: mkHosts([]string{"hit0", "gridhit1", "gridhit2", "gridhit3"}, hitDisk),
			},
		},
		WAN: []WANLink{
			// THU <-> HIT: both on 1 Gb/s campus uplinks; the academic
			// backbone between them sustains ~100 Mb/s with light loss.
			// The 5 ms one-way delay reflects 2005 TANet routing through
			// the regional network center rather than physical distance;
			// it is also what makes un-tuned 64 KiB TCP windows bind on
			// this path, the era-typical effect SBUF tuning addresses.
			{From: SiteTHU, To: SiteHIT, Link: netsim.LinkConfig{
				CapacityBps: 100 * mbps, Delay: 5 * time.Millisecond, LossRate: 0.0002}},
			// THU <-> Li-Zen: the high school's 30 Mb/s uplink is the
			// bottleneck, with WAN-grade loss — the parallel-stream
			// experiment's path.
			{From: SiteTHU, To: SiteLiZen, Link: netsim.LinkConfig{
				CapacityBps: 30 * mbps, Delay: 8 * time.Millisecond, LossRate: 0.004}},
			// HIT <-> Li-Zen: similar class of path.
			{From: SiteHIT, To: SiteLiZen, Link: netsim.LinkConfig{
				CapacityBps: 30 * mbps, Delay: 9 * time.Millisecond, LossRate: 0.004}},
		},
	}
}

// NewPaperTestbed builds the paper's three-cluster testbed on a fresh
// engine-driven network.
func NewPaperTestbed(engine *simulation.Engine) (*Testbed, error) {
	return New(engine, PaperConfig())
}

// StartPaperDynamics attaches the synthetic load walks and background
// traffic that make the testbed "real and dynamic" (paper §1): every host
// gets a load walk and every WAN direction gets wandering cross traffic.
// Seeds derive deterministically from the base seed.
func StartPaperDynamics(t *Testbed, seed int64) error {
	loadFor := func(site string) LoadConfig {
		switch site {
		case SiteTHU: // busy compute cluster
			return LoadConfig{CPUMean: 0.45, CPUVolatility: 0.06, IOMean: 0.25, IOVolatility: 0.05}
		case SiteLiZen: // lightly used teaching lab
			return LoadConfig{CPUMean: 0.15, CPUVolatility: 0.05, IOMean: 0.10, IOVolatility: 0.04}
		default: // HIT: moderate
			return LoadConfig{CPUMean: 0.30, CPUVolatility: 0.06, IOMean: 0.20, IOVolatility: 0.05}
		}
	}
	s := seed
	for _, name := range t.Hosts() {
		h, err := t.Host(name)
		if err != nil {
			return err
		}
		s++
		if err := t.StartLoad(name, loadFor(h.Site()), s); err != nil {
			return err
		}
	}
	bg := netsim.BackgroundConfig{Mean: 0.15, Volatility: 0.05, Reversion: 0.25, Max: 0.8}
	pairs := [][2]string{{SiteTHU, SiteHIT}, {SiteTHU, SiteLiZen}, {SiteHIT, SiteLiZen}}
	for _, p := range pairs {
		for _, dir := range [][2]string{{p[0], p[1]}, {p[1], p[0]}} {
			s++
			if err := t.Network().StartBackground(SwitchNode(dir[0]), SwitchNode(dir[1]), bg, s); err != nil {
				return err
			}
		}
	}
	return nil
}
