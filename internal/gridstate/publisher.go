package gridstate

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Builder produces one host's performance record at a virtual instant by
// pulling the live monitoring substrates. info.Server implements it.
type Builder interface {
	BuildHostPerf(host string, now time.Duration) (HostPerf, error)
}

// Source is a versioned monitoring substrate. Revision must increase
// whenever the substrate's observable state changes (a measurement
// stored, a sample appended, a directory cache refreshed), so the
// Publisher can tell a snapshot is stale without re-pulling everything.
// nws.Memory, sysstat.Collector and the MDS GRIS/GIIS all publish
// revisions as they sample on the virtual clock.
type Source interface {
	Revision() uint64
}

// Publisher folds the versioned substrates into epoch-stamped snapshots.
// A snapshot is valid while the virtual clock and every source revision
// are unchanged since it was built; Snapshot rebuilds lazily otherwise.
//
// The zero value is not usable; use NewPublisher. Rebuilds must happen on
// the simulation goroutine (the builder queries live, single-goroutine
// substrates); Current is safe from any goroutine.
type Publisher struct {
	local   string
	hosts   []string
	builder Builder
	sources []Source

	epoch uint64
	cur   atomic.Pointer[Snapshot]
	// revs are the source revisions observed after the current snapshot's
	// build completed (building may itself refresh directory caches).
	revs []uint64
	// lastChangeAt is the virtual time of the newest publish that saw a
	// source revision move since its predecessor; staleEpochs counts the
	// consecutive publishes since then that saw none. Together they make
	// monitor silence observable on the snapshots (SourceAge/StaleEpochs).
	lastChangeAt time.Duration
	staleEpochs  uint64
	published    bool
}

// NewPublisher wires a publisher for the given tracked hosts. builder is
// the live pull path; sources are the substrates whose revisions gate
// snapshot reuse.
func NewPublisher(local string, hosts []string, builder Builder, sources ...Source) (*Publisher, error) {
	if local == "" {
		return nil, errors.New("gridstate: publisher needs a local host")
	}
	if builder == nil {
		return nil, errors.New("gridstate: publisher needs a builder")
	}
	for i, s := range sources {
		if s == nil {
			return nil, fmt.Errorf("gridstate: nil source at %d", i)
		}
	}
	order, err := sortedHosts(hosts)
	if err != nil {
		return nil, err
	}
	return &Publisher{
		local:   local,
		hosts:   order,
		builder: builder,
		sources: sources,
		revs:    make([]uint64, len(sources)),
	}, nil
}

// Local returns the observing host.
func (p *Publisher) Local() string { return p.local }

// Hosts returns the tracked host names, sorted.
func (p *Publisher) Hosts() []string { return append([]string(nil), p.hosts...) }

// Covers reports whether the publisher tracks the host.
func (p *Publisher) Covers(host string) bool {
	for _, h := range p.hosts {
		if h == host {
			return true
		}
	}
	return false
}

// Track adds hosts to the tracked set (duplicates are ignored) and
// invalidates the current snapshot.
func (p *Publisher) Track(hosts ...string) error {
	merged := p.Hosts()
	for _, h := range hosts {
		if !p.Covers(h) {
			merged = append(merged, h)
		}
	}
	order, err := sortedHosts(merged)
	if err != nil {
		return err
	}
	p.hosts = order
	p.cur.Store(nil)
	return nil
}

// Epoch returns the number of snapshots published so far.
func (p *Publisher) Epoch() uint64 { return p.epoch }

// Current returns the most recently published snapshot without checking
// freshness (nil before the first publish). It is safe from any
// goroutine.
func (p *Publisher) Current() *Snapshot { return p.cur.Load() }

// fresh reports whether the current snapshot can serve queries at now:
// same virtual instant, no source published a new revision since.
func (p *Publisher) fresh(now time.Duration) *Snapshot {
	s := p.cur.Load()
	if s == nil || s.at != now {
		return nil
	}
	for i, src := range p.sources {
		if src.Revision() != p.revs[i] {
			return nil
		}
	}
	return s
}

// Snapshot returns a snapshot valid at now, reusing the current one when
// fresh and republishing otherwise. Must run on the simulation goroutine
// (a rebuild pulls the live substrates).
func (p *Publisher) Snapshot(now time.Duration) *Snapshot {
	if s := p.fresh(now); s != nil {
		return s
	}
	return p.Publish(now)
}

// Publish unconditionally rebuilds the snapshot at now from the live pull
// path, stamps it with the next epoch, and makes it current.
func (p *Publisher) Publish(now time.Duration) *Snapshot {
	// Source movement is judged against the previous epoch's post-build
	// revisions, before this build runs: build-time TTL refreshes belong
	// to this epoch and must not count as substrate activity.
	moved := !p.published
	for i, src := range p.sources {
		if src.Revision() != p.revs[i] {
			moved = true
			break
		}
	}
	if moved {
		p.lastChangeAt = now
		p.staleEpochs = 0
	} else {
		p.staleEpochs++
	}
	p.published = true
	entries := make(map[string]hostEntry, len(p.hosts))
	for _, h := range p.hosts {
		perf, err := p.builder.BuildHostPerf(h, now)
		entries[h] = hostEntry{perf: perf, err: err}
	}
	p.epoch++
	s := &Snapshot{
		epoch:       p.epoch,
		at:          now,
		local:       p.local,
		hosts:       entries,
		order:       p.hosts,
		sourceAge:   now - p.lastChangeAt,
		staleEpochs: p.staleEpochs,
	}
	// Capture revisions after the build: building legitimately refreshes
	// TTL'd directory caches, and those refreshes belong to this epoch.
	for i, src := range p.sources {
		p.revs[i] = src.Revision()
	}
	p.cur.Store(s)
	return s
}
