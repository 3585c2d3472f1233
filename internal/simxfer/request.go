package simxfer

import (
	"fmt"
	"slices"
)

// Request is the single description of a simulated transfer: one or many
// sources, an optional co-allocation scheme, and an optional failover
// policy, all completing through one Result. Every request is one or
// more sessions (setup round trips, then a fan-out of data channels)
// under one of three schedulers: a split — one session per source, the
// payload divided evenly up front, which with a single source is the
// plain or striped transfer; a chunk queue (SchemeDynamic); or an attempt
// sequence (Failover set).
type Request struct {
	// Sources is the serving host list. One element is a plain transfer;
	// several are either co-allocated servers (no Failover) or an ordered
	// failover candidate list (Failover set — one source active at a
	// time, the rest standing by). Submit copies the list: the caller may
	// reuse or overwrite it as soon as Submit returns.
	Sources []string
	// Dst is the receiving host.
	Dst string
	// Bytes is the payload size.
	Bytes int64
	// Options carries the protocol parameters.
	Options Options
	// Scheme picks how several sources share the payload. SchemeDynamic
	// also applies to a single source, which then serves every chunk.
	Scheme Scheme
	// Failover, when non-nil, arms mid-transfer failure detection and
	// the retry/failover engine. Incompatible with co-allocation.
	Failover *FailoverPolicy
	// Done receives the terminal Result exactly once; check Result.Err.
	Done func(Result)
}

// Submit validates the request and starts the transfer; Done fires later
// on the simulation goroutine. The error return covers failures to start
// only, and a request that fails to start has scheduled nothing.
func (t *Transferrer) Submit(req Request) error {
	x, err := t.admit(req)
	if err != nil {
		return err
	}
	switch {
	case req.Failover != nil:
		x.startAttempt()
		return nil
	case req.Scheme == SchemeDynamic:
		return x.chunkQueue()
	default:
		return x.split()
	}
}

// TransferFunc adapts Submit to the callback shape the application
// pipeline and the replication experiment consume (replica.Transfer): one
// plain transfer with options o per call, paths ignored, done receiving
// Result.Err.
func (t *Transferrer) TransferFunc(o Options) func(srcHost, srcPath, dstHost, dstPath string, bytes int64, done func(error)) error {
	return func(srcHost, _, dstHost, _ string, bytes int64, done func(error)) error {
		return t.Submit(Request{
			Sources: []string{srcHost},
			Dst:     dstHost,
			Bytes:   bytes,
			Options: o,
			Done:    func(r Result) { done(r.Err) },
		})
	}
}

// admit is the one validation of a Request: size, options, scheme and
// failover compatibility, every source (distinct, not the destination,
// known), the destination, the routes and the failover policy, in that
// order. It returns the transfer state with every default filled and the
// parts of the Result that are known up front.
func (t *Transferrer) admit(req Request) (*transfer, error) {
	if req.Done == nil {
		return nil, ErrNilDone
	}
	if len(req.Sources) == 0 {
		return nil, ErrNoSources
	}
	if req.Bytes <= 0 {
		return nil, fmt.Errorf("%w, got %d", ErrNonPositiveSize, req.Bytes)
	}
	if err := req.Options.fillDefaults(); err != nil {
		return nil, err
	}
	coalloc := len(req.Sources) > 1 || req.Scheme != SchemeStatic
	switch {
	case req.Failover != nil && req.Options.Stripes > 1:
		return nil, fmt.Errorf("%w: striped transfer", ErrFailoverConfig)
	case req.Failover != nil && req.Scheme != SchemeStatic:
		return nil, fmt.Errorf("%w: co-allocation scheme", ErrFailoverConfig)
	case req.Failover == nil && coalloc && req.Options.Stripes > 1:
		return nil, ErrStripedCoalloc
	}
	for i, s := range req.Sources {
		if s == req.Dst {
			return nil, fmt.Errorf("%w: source %q", ErrSameEndpoint, s)
		}
		if slices.Contains(req.Sources[:i], s) {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateSource, s)
		}
		if _, err := t.tb.Host(s); err != nil {
			return nil, err
		}
	}
	if _, err := t.tb.Host(req.Dst); err != nil {
		return nil, err
	}
	if req.Scheme != SchemeStatic && req.Scheme != SchemeDynamic {
		return nil, fmt.Errorf("%w: %v", ErrUnknownScheme, req.Scheme)
	}
	// Every source that will carry bytes must be routable. A failover
	// request's standbys are resolved only if an attempt ever turns to
	// them — on a 10,000-host world each resolution is a shortest-path
	// tree — and an unroutable one is then a failed attempt.
	routed := req.Sources
	if req.Failover != nil {
		routed = routed[:1]
	}
	for _, s := range routed {
		if _, err := t.tb.Network().PathRTT(s, req.Dst); err != nil {
			return nil, err
		}
	}
	x := &transfer{t: t, req: req, overhead: modeEOverhead(req.Options)}
	x.req.Sources = append(x.sources[:0], req.Sources...)
	if req.Failover != nil {
		x.pol = *req.Failover
		if err := x.pol.fillDefaults(); err != nil {
			return nil, err
		}
	}
	x.res = Result{
		Dst:      req.Dst,
		Bytes:    req.Bytes,
		Options:  req.Options,
		Channels: len(req.Sources) * req.Options.Streams,
		Started:  t.tb.Engine().Now(),
		Scheme:   req.Scheme,
	}
	if coalloc || req.Failover != nil {
		x.res.Sources = slices.Clip(x.req.Sources)
	}
	if req.Failover != nil {
		x.res.Channels = req.Options.Streams
		x.res.Attempts = x.attempts[:0]
	} else if coalloc {
		x.res.BytesBySource = make(map[string]int64, len(req.Sources))
		for _, s := range req.Sources {
			x.res.BytesBySource[s] = 0
		}
	}
	return x, nil
}
