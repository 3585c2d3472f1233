// Package info implements the information server of the paper's replica
// selection scenario (Fig. 1): the component that, asked about a candidate
// replica host, returns "the performance of measurements and predictions of
// three system factors" — network bandwidth (from NWS forecasts), CPU load
// (from an MDS query) and I/O state (from sysstat collectors).
//
// The server is a thin view over gridstate: hosts with a sysstat collector
// (the deployment's monitored set) are tracked by a gridstate.Publisher,
// and Snapshot answers them from the current epoch-stamped snapshot,
// rebuilding it lazily when the virtual clock or a substrate revision
// moved. The original pull-per-query path is the snapshot builder
// (BuildHostPerf), so what a snapshot holds is exactly what a live query
// at the build instant would have returned. Hosts outside the tracked set
// are gridstate.ErrUntracked, which selection treats as unmonitored.
package info

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"github.com/hpclab/datagrid/internal/gridstate"
	"github.com/hpclab/datagrid/internal/mds"
	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/nws"
	"github.com/hpclab/datagrid/internal/sysstat"
)

// ioIdleSource is the slice of sysstat.Collector the server reads. Keeping
// it an interface lets same-package tests substitute failing collectors.
type ioIdleSource interface {
	IOIdlePercent() (float64, error)
}

// Server aggregates the three monitoring substrates.
type Server struct {
	local   string
	network *netsim.Network
	nwsMem  *nws.Memory
	dir     mds.Searcher
	sys     map[string]ioIdleSource
	// filters holds each host's MDS CPU filter, so the hot query path
	// does not rebuild it on every report.
	filters map[string]mds.Filter
	pub     *gridstate.Publisher
}

// maxAge marks a host whose last bandwidth measurement is older than six
// probe periods as unmonitored (ErrNoData). Stale series mean the probe
// path stalled — typically a dead host or link — and the selection server
// must stop considering such replicas.
const maxAge = 6 * nws.ProbePeriod

// NewServer builds an information server for queries issued from the local
// host. dir is the MDS index to query for CPU state (typically the top
// GIIS); sys maps host name to its sysstat collector, the only source of
// I/O state.
//
// The keys of sys become the snapshot plane's tracked host set; hosts
// outside sys are not covered by Snapshot.
func NewServer(local string, network *netsim.Network, nwsMem *nws.Memory, dir mds.Searcher, sys map[string]*sysstat.Collector) (*Server, error) {
	if local == "" {
		return nil, errors.New("info: empty local host")
	}
	if network == nil {
		return nil, errors.New("info: nil network")
	}
	if nwsMem == nil {
		return nil, errors.New("info: nil NWS memory")
	}
	if dir == nil {
		return nil, errors.New("info: nil MDS directory")
	}
	if len(sys) == 0 {
		return nil, errors.New("info: no sysstat collectors")
	}
	tracked := make([]string, 0, len(sys))
	isys := make(map[string]ioIdleSource, len(sys))
	for h, c := range sys {
		tracked = append(tracked, h)
		isys[h] = c
	}
	sort.Strings(tracked)
	srv := &Server{
		local:   local,
		network: network,
		nwsMem:  nwsMem,
		dir:     dir,
		sys:     isys,
		filters: make(map[string]mds.Filter),
	}
	sources := []gridstate.Source{nwsMem}
	if d, ok := dir.(gridstate.Source); ok {
		sources = append(sources, d)
	}
	for _, h := range tracked {
		sources = append(sources, sys[h])
	}
	pub, err := gridstate.NewPublisher(local, tracked, srv, sources...)
	if err != nil {
		return nil, err
	}
	srv.pub = pub
	return srv, nil
}

// Publisher exposes the snapshot plane backing this server.
func (s *Server) Publisher() *gridstate.Publisher { return s.pub }

// Snapshot returns a grid-state snapshot valid at now, rebuilding lazily
// if the clock or a substrate revision moved since the last epoch. Must
// run on the simulation goroutine; the returned snapshot is immutable and
// may be read from any goroutine.
func (s *Server) Snapshot(now time.Duration) *gridstate.Snapshot {
	return s.pub.Snapshot(now)
}

// ErrNoData is returned when a substrate has no information about a host.
var ErrNoData = errors.New("info: no monitoring data")

// BuildHostPerf implements gridstate.Builder with the pull path: it
// queries NWS, MDS and sysstat for one host at one virtual instant.
func (s *Server) BuildHostPerf(host string, now time.Duration) (gridstate.HostPerf, error) {
	r := gridstate.HostPerf{Host: host, Local: s.local, At: now}

	if host == s.local {
		// Local access: no network involved; treat bandwidth as ideal.
		r.BandwidthPercent = 100
		r.BandwidthMbps = 0
		r.TheoreticalMbps = 0
	} else {
		theo, err := s.network.BottleneckBps(host, s.local)
		if err != nil {
			return gridstate.HostPerf{}, fmt.Errorf("info: no path %s->%s: %w", host, s.local, err)
		}
		r.TheoreticalMbps = theo / 1e6
		bwKey := nws.SeriesKey{Resource: nws.ResourceBandwidth, Source: host, Target: s.local}
		fc, err := s.nwsMem.Forecast(bwKey)
		if err != nil {
			return gridstate.HostPerf{}, fmt.Errorf("%w: bandwidth %s->%s: %v", ErrNoData, host, s.local, err)
		}
		last, err := s.nwsMem.Latest(bwKey)
		if err != nil {
			return gridstate.HostPerf{}, fmt.Errorf("%w: bandwidth %s->%s: %v", ErrNoData, host, s.local, err)
		}
		if age := now - last.At; age > maxAge {
			return gridstate.HostPerf{}, fmt.Errorf("%w: bandwidth %s->%s stale by %v", ErrNoData, host, s.local, age)
		}
		r.BandwidthMbps = fc.Value
		r.BandwidthPercent = 100 * fc.Value / r.TheoreticalMbps
		if r.BandwidthPercent > 100 {
			r.BandwidthPercent = 100
		}
		if r.BandwidthPercent < 0 {
			r.BandwidthPercent = 0
		}
		// Latency is best-effort: a deployment runs no latency sensors
		// (only the latency ablation installs them), and the base cost
		// model does not need it.
		if lfc, err := s.nwsMem.Forecast(nws.SeriesKey{
			Resource: nws.ResourceLatency, Source: host, Target: s.local,
		}); err == nil {
			r.LatencyMs = lfc.Value
		}
	}

	cpu, err := s.cpuIdle(host)
	if err != nil {
		return gridstate.HostPerf{}, err
	}
	r.CPUIdlePercent = cpu

	io, err := s.ioIdle(host)
	if err != nil {
		return gridstate.HostPerf{}, err
	}
	r.IOIdlePercent = io
	return r, nil
}

// cpuFilter returns the host's MDS CPU filter, built on first use.
func (s *Server) cpuFilter(host string) mds.Filter {
	f, ok := s.filters[host]
	if !ok {
		f = mds.Filter{{Attr: mds.AttrHostName, Value: host}, {Attr: mds.AttrDevice, Value: "cpu"}}
		s.filters[host] = f
	}
	return f
}

func (s *Server) cpuIdle(host string) (float64, error) {
	es, err := s.dir.Search(s.cpuFilter(host))
	if err != nil {
		return 0, fmt.Errorf("%w: MDS query for %s: %v", ErrNoData, host, err)
	}
	if len(es) == 0 {
		return 0, fmt.Errorf("%w: no MDS cpu entry for %s", ErrNoData, host)
	}
	raw, ok := es[0].Attr(mds.AttrCPUFreeX100)
	if !ok {
		return 0, fmt.Errorf("%w: MDS entry for %s lacks %s", ErrNoData, host, mds.AttrCPUFreeX100)
	}
	x100, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("info: bad %s=%q for %s: %w", mds.AttrCPUFreeX100, raw, host, err)
	}
	return float64(x100) / 100, nil
}

// ioIdle reads the host's sysstat collector. A host without one, or a
// collector that has not sampled yet, is ErrNoData; any other collector
// failure is a real fault and propagates as itself.
func (s *Server) ioIdle(host string) (float64, error) {
	col, ok := s.sys[host]
	if !ok {
		return 0, fmt.Errorf("%w: no I/O collector for %s", ErrNoData, host)
	}
	v, err := col.IOIdlePercent()
	if errors.Is(err, sysstat.ErrNoSamples) {
		return 0, fmt.Errorf("%w: I/O collector for %s: %v", ErrNoData, host, err)
	}
	if err != nil {
		return 0, fmt.Errorf("info: I/O collector for %s: %w", host, err)
	}
	return v, nil
}
