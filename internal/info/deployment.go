package info

import (
	"errors"
	"fmt"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/mds"
	"github.com/hpclab/datagrid/internal/nws"
	"github.com/hpclab/datagrid/internal/sysstat"
)

// DeploymentConfig tunes the monitoring stack installed on a testbed.
type DeploymentConfig struct {
	// Local is the host user applications run on (node i of the cost
	// model); NWS bandwidth sensors probe remote->Local.
	Local string
	// Remotes are the hosts to monitor as replica candidates; at least
	// one.
	Remotes []string
	// NWSProbeBytes is the probe size; default 4 MiB — large enough that
	// slow start does not dominate the measurement on fast paths.
	NWSProbeBytes int64
	// NWSProbeWindow is the probe's TCP window; default 512 KiB (probes
	// measure achievable bandwidth, so they use tuned buffers).
	NWSProbeWindow int
}

func (c *DeploymentConfig) fillDefaults() {
	if c.NWSProbeBytes == 0 {
		c.NWSProbeBytes = 4 << 20
	}
	if c.NWSProbeWindow == 0 {
		c.NWSProbeWindow = 512 << 10
	}
}

// Deployment is the full monitoring stack of Fig. 1's "information server":
// an NWS installation (memory and one bandwidth sensor per remote), an MDS
// hierarchy (GRIS per host, GIIS per site, one top GIIS) and a sysstat I/O
// collector per host, all wired into an info.Server. It runs only the
// monitors selection reads; an experiment that reads more (the latency
// ablation) installs its own sensors on NWS.
type Deployment struct {
	Server  *Server
	NWS     *nws.Memory
	TopGIIS *mds.GIIS
	Sysstat map[string]*sysstat.Collector
	// Sensors holds the bandwidth sensor of each remote.
	Sensors map[string]*nws.Sensor
	// GRIS and SiteGIIS hold the MDS hierarchy below TopGIIS in
	// deployment order.
	GRIS     []*mds.GRIS
	SiteGIIS []*mds.GIIS
}

// SetMonitorsPaused suspends (or resumes) every monitoring process in the
// deployment — NWS sensors, sysstat collectors and the MDS
// hierarchy. This is the fault plane's "monitor outage": the substrates
// stop reporting, their revision counters freeze, and published grid-state
// snapshots go stale until the outage ends.
func (d *Deployment) SetMonitorsPaused(paused bool) {
	for _, s := range d.Sensors {
		s.SetPaused(paused)
	}
	for _, c := range d.Sysstat {
		c.SetPaused(paused)
	}
	for _, g := range d.GRIS {
		g.SetPaused(paused)
	}
	for _, g := range d.SiteGIIS {
		g.SetPaused(paused)
	}
	if d.TopGIIS != nil {
		d.TopGIIS.SetPaused(paused)
	}
}

// Deploy installs the monitoring stack on a testbed and returns the wired
// information server.
func Deploy(tb *cluster.Testbed, cfg DeploymentConfig) (*Deployment, error) {
	if tb == nil {
		return nil, errors.New("info: nil testbed")
	}
	if cfg.Local == "" {
		return nil, errors.New("info: deployment needs a local host")
	}
	if _, err := tb.Host(cfg.Local); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	engine := tb.Engine()

	remotes := cfg.Remotes
	if len(remotes) == 0 {
		return nil, errors.New("info: deployment needs a remote host")
	}
	for _, r := range remotes {
		if r == cfg.Local {
			return nil, fmt.Errorf("info: local host %q listed as remote", r)
		}
		if _, err := tb.Host(r); err != nil {
			return nil, err
		}
	}

	// --- NWS ---
	mem := nws.NewMemory()
	sensors := make(map[string]*nws.Sensor, len(remotes))
	for _, r := range remotes {
		s, err := nws.NewBandwidthSensor(engine, mem, tb.Network(), r, cfg.Local, nws.BandwidthSensorConfig{
			ProbeBytes:  cfg.NWSProbeBytes,
			WindowBytes: cfg.NWSProbeWindow,
		})
		if err != nil {
			return nil, fmt.Errorf("info: bandwidth sensor %s->%s: %w", r, cfg.Local, err)
		}
		sensors[r] = s
	}

	// --- MDS hierarchy ---
	top, err := mds.NewGIIS(engine, "Mds-Vo-name=grid,o=grid")
	if err != nil {
		return nil, err
	}
	var grisServers []*mds.GRIS
	var siteServers []*mds.GIIS
	for _, site := range tb.Sites() {
		siteGIIS, err := mds.NewGIIS(engine, "Mds-Vo-name="+site+",o=grid")
		if err != nil {
			return nil, err
		}
		siteServers = append(siteServers, siteGIIS)
		hosts, err := tb.SiteHosts(site)
		if err != nil {
			return nil, err
		}
		for _, h := range hosts {
			gris, err := mds.NewGRIS(engine, "Mds-Host-hn="+h.Name()+",Mds-Vo-name="+site+",o=grid")
			if err != nil {
				return nil, err
			}
			grisServers = append(grisServers, gris)
			if err := gris.AddProvider(mds.NewCPUProvider(h, site)); err != nil {
				return nil, err
			}
			if err := siteGIIS.Register(gris); err != nil {
				return nil, err
			}
		}
		if err := top.Register(siteGIIS); err != nil {
			return nil, err
		}
	}

	// --- sysstat ---
	collectors := make(map[string]*sysstat.Collector, len(remotes)+1)
	for _, name := range append(append([]string(nil), remotes...), cfg.Local) {
		h, err := tb.Host(name)
		if err != nil {
			return nil, err
		}
		col, err := sysstat.NewCollector(engine, h)
		if err != nil {
			return nil, err
		}
		collectors[name] = col
	}

	srv, err := NewServer(cfg.Local, tb.Network(), mem, top, collectors)
	if err != nil {
		return nil, err
	}
	return &Deployment{
		Server:   srv,
		NWS:      mem,
		TopGIIS:  top,
		Sysstat:  collectors,
		Sensors:  sensors,
		GRIS:     grisServers,
		SiteGIIS: siteServers,
	}, nil
}
