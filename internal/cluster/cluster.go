// Package cluster models the Data Grid testbed: sites (PC clusters) made of
// hosts with CPUs and disks, joined by a LAN switch per site and WAN links
// between sites. Host CPU and I/O load are dynamic, driven either by
// synthetic load walks or by explicitly attached jobs, and are the
// quantities the paper's monitoring substrates (MDS, sysstat) observe.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/simulation"
)

// DiskSpec describes a host's storage.
type DiskSpec struct {
	// ReadBps and WriteBps are the sequential transfer rates in bits/s.
	ReadBps  float64
	WriteBps float64
}

// HostConfig declares one grid host.
type HostConfig struct {
	Name string
	Disk DiskSpec
}

// SiteConfig declares one cluster site.
type SiteConfig struct {
	Name string
	// LAN is the link between each host and the site switch.
	LAN   netsim.LinkConfig
	Hosts []HostConfig
}

// WANLink joins two sites' switches.
type WANLink struct {
	From, To string
	Link     netsim.LinkConfig
}

// Config declares a whole testbed.
type Config struct {
	Sites []SiteConfig
	WAN   []WANLink
}

// Host is a grid node with dynamic CPU and I/O state.
type Host struct {
	cfg  HostConfig
	site string
	// up is the host's LAN link to the site switch, resolved once so
	// HostDown builds no name.
	up *netsim.Link

	baseCPULoad float64 // synthetic background CPU busy fraction
	baseIOLoad  float64 // synthetic background I/O busy fraction
	jobCPULoad  float64 // CPU busy contributed by attached jobs
	jobIOLoad   float64 // I/O busy contributed by attached jobs
	// walk moves the base loads (StartLoad), or is nil.
	walk *simulation.Walk
}

// Name returns the host name (also its netsim node name).
func (h *Host) Name() string { return h.cfg.Name }

// Site returns the owning site name.
func (h *Host) Site() string { return h.site }

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// CPULoad returns the busy fraction of the CPU in [0,1].
func (h *Host) CPULoad() float64 {
	h.walk.Advance()
	return clamp01(h.baseCPULoad + h.jobCPULoad)
}

// CPUIdle returns 1 - CPULoad.
func (h *Host) CPUIdle() float64 { return 1 - h.CPULoad() }

// IOLoad returns the busy fraction of the disk subsystem in [0,1].
func (h *Host) IOLoad() float64 {
	h.walk.Advance()
	return clamp01(h.baseIOLoad + h.jobIOLoad)
}

// IOIdle returns 1 - IOLoad.
func (h *Host) IOIdle() float64 { return 1 - h.IOLoad() }

// SetBaseCPULoad sets the synthetic background CPU load fraction, after
// the load walk's due steps.
func (h *Host) SetBaseCPULoad(v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("cluster: CPU load %v out of [0,1]", v)
	}
	h.walk.Advance()
	h.baseCPULoad = v
	return nil
}

// SetBaseIOLoad sets the synthetic background I/O load fraction, after
// the load walk's due steps.
func (h *Host) SetBaseIOLoad(v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("cluster: I/O load %v out of [0,1]", v)
	}
	h.walk.Advance()
	h.baseIOLoad = v
	return nil
}

// EffectiveDiskReadBps returns the disk read bandwidth left for a new
// transfer given current I/O contention.
func (h *Host) EffectiveDiskReadBps() float64 { return h.cfg.Disk.ReadBps * h.IOIdle() }

// EffectiveDiskWriteBps returns the disk write bandwidth left for a new
// transfer given current I/O contention.
func (h *Host) EffectiveDiskWriteBps() float64 { return h.cfg.Disk.WriteBps * h.IOIdle() }

// Job represents load attached to a host (a running computation or a local
// file operation). Remove it by calling its release function.
type Job struct {
	host     *Host
	cpu, io  float64
	released bool
}

// AddJob attaches (cpu, io) load fractions to the host and returns the job
// handle. Loads saturate at 1.0 in the aggregate.
func (h *Host) AddJob(cpu, io float64) (*Job, error) {
	if cpu < 0 || cpu > 1 || io < 0 || io > 1 {
		return nil, fmt.Errorf("cluster: job load (%v,%v) out of [0,1]", cpu, io)
	}
	h.jobCPULoad += cpu
	h.jobIOLoad += io
	return &Job{host: h, cpu: cpu, io: io}, nil
}

// Release detaches the job's load. Releasing twice is a no-op.
func (j *Job) Release() {
	if j.released {
		return
	}
	j.released = true
	j.host.jobCPULoad -= j.cpu
	j.host.jobIOLoad -= j.io
	if j.host.jobCPULoad < 0 {
		j.host.jobCPULoad = 0
	}
	if j.host.jobIOLoad < 0 {
		j.host.jobIOLoad = 0
	}
}

// Testbed is the simulated grid: hosts, sites and the WAN that joins them.
type Testbed struct {
	engine *simulation.Engine
	net    *netsim.Network
	sites  map[string][]*Host
	hosts  map[string]*Host
}

// SwitchNode returns the netsim node name of a site's LAN switch.
func SwitchNode(site string) string { return "switch." + site }

// New builds a testbed (and its network topology) from cfg.
func New(engine *simulation.Engine, cfg Config) (*Testbed, error) {
	if len(cfg.Sites) == 0 {
		return nil, errors.New("cluster: testbed needs at least one site")
	}
	t := &Testbed{
		engine: engine,
		net:    netsim.New(engine),
		sites:  make(map[string][]*Host),
		hosts:  make(map[string]*Host),
	}
	for _, sc := range cfg.Sites {
		if sc.Name == "" {
			return nil, errors.New("cluster: empty site name")
		}
		if _, dup := t.sites[sc.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate site %q", sc.Name)
		}
		if len(sc.Hosts) == 0 {
			return nil, fmt.Errorf("cluster: site %q has no hosts", sc.Name)
		}
		sw := SwitchNode(sc.Name)
		if err := t.net.AddNode(sw); err != nil {
			return nil, err
		}
		t.sites[sc.Name] = nil
		for _, hc := range sc.Hosts {
			if hc.Name == "" {
				return nil, fmt.Errorf("cluster: empty host name in site %q", sc.Name)
			}
			if _, dup := t.hosts[hc.Name]; dup {
				return nil, fmt.Errorf("cluster: duplicate host %q", hc.Name)
			}
			if hc.Disk.ReadBps <= 0 || hc.Disk.WriteBps <= 0 {
				return nil, fmt.Errorf("cluster: host %q needs positive disk rates", hc.Name)
			}
			if err := t.net.AddNode(hc.Name); err != nil {
				return nil, err
			}
			if err := t.net.AddLink(hc.Name, sw, sc.LAN); err != nil {
				return nil, err
			}
			h := &Host{cfg: hc, site: sc.Name}
			var err error
			if h.up, err = t.net.GetLink(hc.Name, sw); err != nil {
				return nil, err
			}
			t.hosts[hc.Name] = h
			t.sites[sc.Name] = append(t.sites[sc.Name], h)
		}
	}
	for _, w := range cfg.WAN {
		if _, ok := t.sites[w.From]; !ok {
			return nil, fmt.Errorf("cluster: WAN link references unknown site %q", w.From)
		}
		if _, ok := t.sites[w.To]; !ok {
			return nil, fmt.Errorf("cluster: WAN link references unknown site %q", w.To)
		}
		if err := t.net.AddLink(SwitchNode(w.From), SwitchNode(w.To), w.Link); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Engine returns the driving simulation engine.
func (t *Testbed) Engine() *simulation.Engine { return t.engine }

// Network returns the underlying simulated WAN.
func (t *Testbed) Network() *netsim.Network { return t.net }

// ErrUnknownHost is returned by lookups naming a host the testbed does
// not have; check with errors.Is.
var ErrUnknownHost = errors.New("cluster: unknown host")

// Host looks up a host by name.
func (t *Testbed) Host(name string) (*Host, error) {
	h, ok := t.hosts[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownHost, name)
	}
	return h, nil
}

// Hosts returns all host names, sorted.
func (t *Testbed) Hosts() []string {
	out := make([]string, 0, len(t.hosts))
	for n := range t.hosts {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Sites returns all site names, sorted.
func (t *Testbed) Sites() []string {
	out := make([]string, 0, len(t.sites))
	for n := range t.sites {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SiteHosts returns the hosts of one site in declaration order.
func (t *Testbed) SiteHosts(site string) ([]*Host, error) {
	hs, ok := t.sites[site]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown site %q", site)
	}
	return hs, nil
}

// SetHostDown fails (or restores) a host by taking down both directions of
// its LAN uplink — the simulation analogue of the node crashing or being
// unplugged. Transfers to or from the host stall, its monitoring series go
// stale, and the selection layer routes around it.
func (t *Testbed) SetHostDown(name string, down bool) error {
	h, err := t.Host(name)
	if err != nil {
		return err
	}
	sw := SwitchNode(h.Site())
	if err := t.net.SetLinkDown(name, sw, down); err != nil {
		return err
	}
	return t.net.SetLinkDown(sw, name, down)
}

// HostDown reports whether the host's uplink is currently failed.
func (t *Testbed) HostDown(name string) (bool, error) {
	h, err := t.Host(name)
	if err != nil {
		return false, err
	}
	return h.up.Down(), nil
}

// LoadConfig parameterizes a synthetic host load walk: mean-reverting
// random walks for CPU and I/O load, mimicking a shared cluster node.
type LoadConfig struct {
	CPUMean, CPUVolatility float64
	IOMean, IOVolatility   float64
	// Reversion in (0,1] pulls each walk toward its mean per step.
	Reversion float64
	// Period is the virtual-time interval between updates.
	Period time.Duration
}

// StartLoad attaches a synthetic load walk to the host: its base CPU and
// I/O load start at the means and step every Period, CPU first, from one
// RNG seeded with seed. No event is scheduled: reading or setting the
// host's load applies the due steps.
func (t *Testbed) StartLoad(host string, cfg LoadConfig, seed int64) error {
	if cfg.CPUMean > 1 || cfg.IOMean > 1 {
		return fmt.Errorf("cluster: load means (%v,%v) above 1", cfg.CPUMean, cfg.IOMean)
	}
	h, err := t.Host(host)
	if err != nil {
		return err
	}
	w, err := simulation.NewWalk(t.engine, cfg.Period, seed, nil,
		simulation.WalkAxis{V: &h.baseCPULoad, Mean: cfg.CPUMean, Reversion: cfg.Reversion, Volatility: cfg.CPUVolatility, Max: 1},
		simulation.WalkAxis{V: &h.baseIOLoad, Mean: cfg.IOMean, Reversion: cfg.Reversion, Volatility: cfg.IOVolatility, Max: 1})
	if err != nil {
		return err
	}
	h.walk, h.baseCPULoad, h.baseIOLoad = w, cfg.CPUMean, cfg.IOMean
	return nil
}
