package gridstate

import (
	"errors"
	"fmt"
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

// Publisher folds the versioned substrates into epoch-stamped snapshots
// of a host set fixed at construction. A snapshot is valid while the
// virtual clock and every source revision are unchanged since it was
// built; Snapshot rebuilds lazily otherwise.
//
// The zero value is not usable; use NewPublisher. A Publisher must be
// driven from the simulation goroutine (a rebuild queries live,
// single-goroutine substrates); the snapshots it returns may be shared.
type Publisher struct {
	hosts   []string
	builder Builder
	sources []Source

	epoch uint64
	cur   *Snapshot
	// revs are the source revisions observed after the current snapshot's
	// build completed (building may itself refresh directory caches).
	revs []uint64
}

// NewPublisher wires a publisher for the given tracked hosts. builder is
// the live pull path; sources are the substrates whose revisions gate
// snapshot reuse. local names the observing host the builder reports
// from; it must be set, though the publisher keeps no copy.
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
		hosts:   order,
		builder: builder,
		sources: sources,
		revs:    make([]uint64, len(sources)),
	}, nil
}

// Epoch returns the number of snapshots published so far.
func (p *Publisher) Epoch() uint64 { return p.epoch }

// fresh reports whether the current snapshot can serve queries at now:
// same virtual instant, no source published a new revision since.
func (p *Publisher) fresh(now time.Duration) *Snapshot {
	s := p.cur
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
	return p.publish(now)
}

// publish rebuilds the snapshot at now from the live pull path, stamps it
// with the next epoch, and makes it current.
func (p *Publisher) publish(now time.Duration) *Snapshot {
	entries := make([]hostEntry, len(p.hosts))
	for i, h := range p.hosts {
		e := &entries[i]
		e.perf, e.err = p.builder.BuildHostPerf(h, now)
	}
	p.epoch++
	s := &Snapshot{epoch: p.epoch, at: now, hosts: p.hosts, entries: entries}
	// Capture revisions after the build: building legitimately refreshes
	// TTL'd directory caches, and those refreshes belong to this epoch.
	for i, src := range p.sources {
		p.revs[i] = src.Revision()
	}
	p.cur = s
	return s
}
