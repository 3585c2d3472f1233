package simxfer

import (
	"fmt"
	"slices"
)

// Scheme selects how a multi-source (co-allocated) transfer divides the
// file among the replica servers.
type Scheme int

const (
	// SchemeStatic splits the file into equal parts up front (Vazhkudai's
	// "brute force" co-allocation): the slowest server dictates the
	// finish time.
	SchemeStatic Scheme = iota
	// SchemeDynamic cuts the file into chunks served from a shared work
	// queue: each server pulls its next chunk when the previous one
	// lands, so fast servers carry more of the file.
	SchemeDynamic
)

func (s Scheme) String() string {
	switch s {
	case SchemeStatic:
		return "static-split"
	case SchemeDynamic:
		return "dynamic-chunks"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ChunkBytes is the dynamic scheme's work-queue granularity.
const ChunkBytes = 4 << 20

// split is the up-front scheduler: one session per source, each carrying
// an equal share of the payload (the first takes the remainder) over its
// own data movers. A single source is the plain transfer — or, with
// Stripes set, the striped one, its movers drawn from the source's site;
// several sources are static co-allocation, one mover each, every server
// assuming it has the receiver's disk to itself.
func (x *transfer) split() error {
	k := int64(len(x.req.Sources))
	x.open = len(x.req.Sources)
	for i := range x.req.Sources {
		movers := x.req.Sources[i : i+1]
		if k == 1 {
			var err error
			if movers, err = x.stripeMovers(); err != nil {
				return err
			}
			x.res.Src, x.res.Sources = movers[0], slices.Clip(movers)
			x.res.Channels = len(movers) * x.req.Options.Streams
		}
		share := x.req.Bytes / k
		if i == 0 {
			share += x.req.Bytes % k
		}
		s := x.newSession(movers, share, len(movers)*x.req.Options.Streams)
		if err := s.open((*session).launch); err != nil {
			return err
		}
	}
	return nil
}

// stripeMovers picks a lone source's data movers: the named host first,
// then its site peers up to Options.Stripes (striped GridFTP spreads data
// movers across the cluster). The destination cannot also be a data
// mover for itself, and stripes beyond the site's size are clamped.
func (x *transfer) stripeMovers() ([]string, error) {
	src := x.req.Sources[0]
	movers := x.req.Sources[:1:1]
	if x.req.Options.Stripes == 1 {
		return movers, nil
	}
	h, err := x.t.tb.Host(src)
	if err != nil {
		return nil, err
	}
	peers, err := x.t.tb.SiteHosts(h.Site())
	if err != nil {
		return nil, err
	}
	for _, p := range peers {
		if len(movers) == x.req.Options.Stripes {
			break
		}
		if p.Name() != src && p.Name() != x.req.Dst {
			movers = append(movers, p.Name())
		}
	}
	return movers, nil
}

// chunkQueue is the work-queue scheduler: every source opens one session,
// then pulls its next chunk off the shared queue each time the previous
// one lands, so fast servers carry more of the file. Setup is paid once
// per source, not per chunk.
func (x *transfer) chunkQueue() error {
	x.chunks = (x.req.Bytes + ChunkBytes - 1) / ChunkBytes
	x.open = int(x.chunks)
	channels := len(x.req.Sources) * x.req.Options.Streams
	for i := range x.req.Sources {
		s := x.newSession(x.req.Sources[i:i+1], 0, channels)
		if err := s.open((*session).pull); err != nil {
			return err
		}
	}
	return nil
}

// pull hands the session the next chunk, if any is left.
func (s *session) pull() {
	x := s.x
	if x.next == x.chunks {
		return
	}
	s.bytes = ChunkBytes
	if x.next == x.chunks-1 {
		s.bytes = x.req.Bytes - x.next*ChunkBytes
	}
	x.next++
	s.launch()
}

// landed is both schedulers' session report: credit the bytes that moved
// to their server, deliver the Result when nothing is left out, and
// under the chunk queue send the session back for more. A session whose
// channels could not start fails the whole transfer at once; what the
// other sessions still report after that is dropped.
func (x *transfer) landed(s *session, err error) {
	if x.res.Err != nil {
		return
	}
	if err != nil {
		x.finish(err)
		return
	}
	if x.res.BytesBySource != nil {
		x.res.BytesBySource[s.movers[0]] += s.bytes
	}
	x.open--
	if x.open == 0 {
		x.finish(nil)
	} else if x.req.Scheme == SchemeDynamic {
		s.pull()
	}
}
