// Package simxfer models FTP and GridFTP transfers on the simulated
// testbed. It charges the control-channel round trips the real protocol
// implementations in this repository actually perform (connection setup,
// login or GSI handshake, mode/option negotiation), then moves the payload
// as netsim TCP flows — one per data channel — capped by the endpoints'
// disk bandwidth and CPU state. The paper's figures are regenerated with
// these models; the wire protocol itself lives in internal/gridftp and
// runs over real sockets.
package simxfer

import (
	"errors"
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/gridftp"
	"github.com/hpclab/datagrid/internal/gsi"
	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/simulation"
)

// Control-channel costs, as modelled: TCP connect, banner, USER, PASS,
// TYPE, PASV, data-channel connect, RETR. The real client sends SIZE
// before PASV and gets its banner inside the connect, so its plain-FTP
// download also costs 8 — TestSetupRoundTripsAgainstRealStack pins both.
const ftpSetupRoundTrips = 8

// GridFTP adds AUTH GSI + the GSI handshake + MODE E + OPTS (SBUF, when
// used, piggybacks on the same exchange in our accounting). The real
// client logs in with GSI instead of USER/PASS, not in addition, sends
// MODE E and OPTS only in extended mode, and dials MODE E's data channels
// one after another: 9, 11 and 14 round trips for stream mode, MODE E
// at p = 1 and at p = 4, against the flat 12 charged here
// (docs/SIMULATOR.md).
const gridftpExtraRoundTrips = 2 + gsi.HandshakeRoundTrips

// cpuFloor is the fraction of transfer throughput that survives a fully
// busy sender CPU. The paper observes CPU state "slightly" affects
// transfers (§3.3); a saturated host still moves data, just slower.
const cpuFloor = 0.6

// Protocol selects the modeled wire protocol.
type Protocol int

// The modeled protocols.
const (
	// ProtoFTP is classic stream-mode FTP: one data channel, no auth
	// handshake beyond USER/PASS.
	ProtoFTP Protocol = iota
	// ProtoGridFTPStream is GridFTP in stream mode (MODE S): GSI setup
	// cost, single channel, no block overhead.
	ProtoGridFTPStream
	// ProtoGridFTPModeE is GridFTP in extended block mode: GSI setup,
	// MODE E block framing overhead, Streams parallel channels and
	// optionally Stripes data movers.
	ProtoGridFTPModeE
)

func (p Protocol) String() string {
	switch p {
	case ProtoFTP:
		return "ftp"
	case ProtoGridFTPStream:
		return "gridftp-stream"
	case ProtoGridFTPModeE:
		return "gridftp-modeE"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Options describes one transfer's parameters, mirroring
// gridftp.ClientConfig.
type Options struct {
	// Protocol is the wire protocol to model.
	Protocol Protocol
	// Streams is the number of parallel TCP data channels per stripe
	// (MODE E only); default 1.
	Streams int
	// Stripes is the number of source-side data movers (striped
	// transfer); default 1. Stripes beyond the source site's host count
	// are clamped.
	Stripes int
	// TCPBufferBytes is the data-channel window; default 64 KiB (the
	// un-tuned 2005 default the paper's testbed used).
	TCPBufferBytes int
}

func (o *Options) fillDefaults() error {
	if o.Streams == 0 {
		o.Streams = 1
	}
	if o.Stripes == 0 {
		o.Stripes = 1
	}
	if o.Streams < 0 || o.Stripes < 0 || o.TCPBufferBytes < 0 {
		return ErrNegativeOption
	}
	if o.Protocol != ProtoGridFTPModeE && (o.Streams > 1 || o.Stripes > 1) {
		return fmt.Errorf("%w: %v", ErrSingleChannel, o.Protocol)
	}
	if o.TCPBufferBytes == 0 {
		o.TCPBufferBytes = netsim.DefaultWindowBytes
	}
	return nil
}

// GridFTPOptions returns a MODE E configuration with the given stream
// count (streams == 0 models stream-mode GridFTP, the paper's "no parallel
// data transfer" series).
func GridFTPOptions(streams int) Options {
	if streams == 0 {
		return Options{Protocol: ProtoGridFTPStream}
	}
	return Options{Protocol: ProtoGridFTPModeE, Streams: streams}
}

// Result describes a finished simulated transfer, whichever scheduler
// drove it: a plain or striped single-source run, a co-allocated
// multi-source download, or a failover transfer that walked a candidate
// list.
type Result struct {
	// Src is the serving host — for failover transfers, the source of
	// the final attempt. Empty for co-allocated transfers (see Sources).
	Src string
	// Dst is the receiving host.
	Dst string
	// Bytes is the payload size.
	Bytes int64
	// Options echoes the transfer parameters, defaults filled.
	Options Options
	// Channels is the total data-channel count used (streams x stripes,
	// or streams x sources for co-allocation).
	Channels int
	// Started and Finished are virtual timestamps: Submit and Done.
	Started, Finished time.Duration
	// Sources lists the participating hosts: the stripe movers of a
	// single-source run, the servers of a co-allocated download, or the
	// candidate list handed to a failover transfer. Like Attempts, it is
	// the transfer's own storage, capped at its length so that an append
	// copies; nothing reuses it, so a retained Result stays valid.
	Sources []string
	// Scheme is the co-allocation split policy (co-allocation only).
	Scheme Scheme
	// BytesBySource records each server's contribution (co-allocation
	// only; nil otherwise). Only bytes that moved are counted.
	BytesBySource map[string]int64
	// Attempts is the failover attempt log, in order; nil when the
	// request carried no failover policy.
	Attempts []Attempt
	// Err is the terminal error: nil on success, ErrTransferFailed
	// (wrapped) once a failover transfer exhausts its attempts, or the
	// cause when a data channel of any other transfer could not start.
	Err error
}

// Duration returns the end-to-end transfer time (setup included).
func (r Result) Duration() time.Duration { return r.Finished - r.Started }

// Transferrer runs simulated transfers on a testbed.
type Transferrer struct {
	tb *cluster.Testbed
	// alive is pickSource's scratch: the surviving candidates it hands to
	// FailoverPolicy.Rank.
	alive []string
}

// New wires a transferrer to a testbed.
func New(tb *cluster.Testbed) (*Transferrer, error) {
	if tb == nil {
		return nil, errors.New("simxfer: nil testbed")
	}
	return &Transferrer{tb: tb}, nil
}

// setupRoundTrips counts the control-channel round trips a session pays
// before data moves.
func setupRoundTrips(p Protocol) int {
	n := ftpSetupRoundTrips
	if p != ProtoFTP {
		n += gridftpExtraRoundTrips
	}
	return n
}

// modeEOverhead is the per-payload-byte MODE E framing overhead fraction
// of gridftp.DefaultBlockSize blocks (zero for stream-mode protocols).
func modeEOverhead(o Options) float64 {
	if o.Protocol == ProtoGridFTPModeE {
		return float64(gridftp.HeaderLen) / float64(gridftp.DefaultBlockSize)
	}
	return 0
}

// endpointCapBps is the per-channel rate cap from the endpoints' state:
// the sender's disk read rate scaled by CPU business and split across its
// srcChannels, against the receiver's disk write rate split across all
// dstChannels, whichever binds.
func endpointCapBps(src, dst *cluster.Host, srcChannels, dstChannels int) float64 {
	srcCap := src.EffectiveDiskReadBps() * (cpuFloor + (1-cpuFloor)*src.CPUIdle()) / float64(srcChannels)
	dstCap := dst.EffectiveDiskWriteBps() * (cpuFloor + (1-cpuFloor)*dst.CPUIdle()) / float64(dstChannels)
	if dstCap < srcCap {
		return dstCap
	}
	return srcCap
}

// inlineSources is how many sources a transfer holds without allocating
// their list: the traffic plane's failover requests carry up to four.
const inlineSources = 4

// transfer is the state behind one Submit: the validated request, the one
// Result every scheduler fills, and the few counters the schedulers keep.
// It lives entirely on the simulation goroutine.
type transfer struct {
	t *Transferrer
	// req is validated: Sources is the transfer's own copy, and Options
	// and Failover carry their defaults.
	req      Request
	overhead float64 // MODE E framing overhead per payload byte
	res      Result

	// The request's slices and its first session start here: a request
	// of at most inlineSources sources that one session completes
	// allocates none of them on its own.
	sources  [inlineSources]string
	attempts [1]Attempt
	first    session

	// Split and chunk-queue schedulers.
	open         int   // sessions (split) or chunks (queue) not yet landed
	next, chunks int64 // chunk-queue cursor and length

	// Attempt sequence (failover).
	pol        FailoverPolicy
	readmitted int   // attempt-log index of the last re-admission of burned sources
	resume     int64 // payload bytes landed by earlier MODE E attempts
	timeout    simulation.Event
}

// session is the one transfer primitive, a GridFTP (or FTP) session: pay
// the control-channel round trips, then move bytes over len(movers) x
// Streams data channels — channel 0 takes the remainder, every channel of
// a mover runs under that mover's endpoint cap — and report once, when
// the last channel lands or the first one fails. The schedulers differ
// only in how many sessions they open, what each carries and what they do
// when one reports.
type session struct {
	x *transfer
	// movers are the source-side data movers; movers[0] holds the
	// control channel.
	movers []string
	// bytes is the payload of the next fan-out.
	bytes int64
	// dstChannels is how many channels share the receiver's disk.
	dstChannels int

	// start runs after the control-channel setup (Fire): launch, or
	// the chunk queue's pull.
	start func(*session)
	left  int  // channels still moving
	ended bool // reported; later flow ends are stale
	// flows are the live channels, tracked only when the request carries
	// a failover policy (which also arms FailOnDown); flowInline holds a
	// four-stream session's.
	flows      []*netsim.Flow
	flowInline [4]*netsim.Flow
}

// newSession opens the transfer's first session in place and allocates
// any later one: a session whose attempt ended may still have its setup
// event pending, which must find it ended.
func (x *transfer) newSession(movers []string, bytes int64, dstChannels int) *session {
	s := &x.first
	if s.x != nil {
		s = new(session)
	}
	*s = session{x: x, movers: movers, bytes: bytes, dstChannels: dstChannels}
	s.flows = s.flowInline[:0]
	return s
}

// open schedules start after the session's control-channel setup: the
// session is the setup event's receiver (Fire).
func (s *session) open(start func(*session)) error {
	tb := s.x.t.tb
	rtt, err := tb.Network().PathRTT(s.movers[0], s.x.req.Dst)
	if err != nil {
		return err
	}
	s.start = start
	setup := time.Duration(setupRoundTrips(s.x.req.Options.Protocol)) * rtt
	_, err = tb.Engine().AfterHandler(setup, s)
	return err
}

// Fire ends the session's setup. A session ended meanwhile (an attempt
// timeout shorter than the setup) lets the event fire as a no-op.
func (s *session) Fire(time.Duration) {
	if !s.ended {
		s.start(s)
	}
}

// launch fans s.bytes out over the session's data channels. It is the
// only place a flow starts. Endpoint caps are read here, per mover, so a
// chunk or a retry sees the load of its own moment.
func (s *session) launch() {
	x, o := s.x, &s.x.req.Options
	tb := x.t.tb
	track := x.req.Failover != nil
	channels := len(s.movers) * o.Streams
	per := s.bytes / int64(channels)
	s.ended, s.left, s.flows = false, channels, s.flows[:0]
	dst, err := tb.Host(x.req.Dst)
	if err != nil {
		s.end(err)
		return
	}
	for mi, mover := range s.movers {
		h, err := tb.Host(mover)
		if err != nil {
			s.end(err)
			return
		}
		cap := endpointCapBps(h, dst, o.Streams, s.dstChannels)
		for k := 0; k < o.Streams; k++ {
			sz := per
			if mi == 0 && k == 0 {
				sz += s.bytes % int64(channels)
			}
			if sz <= 0 {
				s.left--
				continue
			}
			f, err := tb.Network().StartFlow(mover, x.req.Dst, sz, netsim.FlowOptions{
				WindowBytes:      o.TCPBufferBytes,
				RateCapBps:       cap,
				OverheadFraction: x.overhead,
				FailOnDown:       track,
			}, s)
			if err != nil {
				// Under failover typically ErrPathDown: the route broke
				// during setup.
				s.end(err)
				return
			}
			if track {
				s.flows = append(s.flows, f)
			}
		}
	}
	if s.left == 0 {
		s.end(nil)
	}
}

// FlowEnded is a data channel's report: the session is every one of its
// flows' receiver.
func (s *session) FlowEnded(f *netsim.Flow) {
	if s.ended {
		return
	}
	if f.State() == netsim.FlowFailed {
		s.end(fmt.Errorf("%w: %s->%s", netsim.ErrPathDown, f.Src(), f.Dst()))
		return
	}
	s.left--
	if s.left == 0 {
		s.end(nil)
	}
}

// end reports the fan-out exactly once, to the attempt sequence or to
// the split and chunk-queue schedulers' common report.
func (s *session) end(err error) {
	if s.ended {
		return
	}
	s.ended = true
	if s.x.req.Failover != nil {
		s.x.endAttempt(s, err)
	} else {
		s.x.landed(s, err)
	}
}

// finish stamps the Result and delivers it.
func (x *transfer) finish(err error) {
	x.res.Finished, x.res.Err = x.t.tb.Engine().Now(), err
	x.req.Done(x.res)
}
