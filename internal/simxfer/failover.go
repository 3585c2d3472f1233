package simxfer

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/hpclab/datagrid/internal/netsim"
)

// RetryMode selects what a failover transfer does after a failed attempt.
type RetryMode int

const (
	// NoRetry gives up after the first failed attempt — the historical
	// client behavior the paper's era tooling exhibited.
	NoRetry RetryMode = iota
	// RetrySame retries the same source after a backoff, hoping the
	// fault is transient (a link flap, a rebooting router).
	RetrySame
	// FailoverReselect re-ranks the surviving candidates after each
	// failure and moves to the next-best replica.
	FailoverReselect
)

func (m RetryMode) String() string {
	switch m {
	case NoRetry:
		return "no-retry"
	case RetrySame:
		return "retry-same"
	case FailoverReselect:
		return "failover-reselect"
	default:
		return fmt.Sprintf("RetryMode(%d)", int(m))
	}
}

// Failover engine defaults.
const (
	DefaultMaxAttempts    = 4
	DefaultInitialBackoff = 500 * time.Millisecond
	DefaultMaxBackoff     = 10 * time.Second
)

// backoffFactor is the failover backoff's growth multiplier.
const backoffFactor = 2.0

// FailoverPolicy arms a Request with mid-transfer failure detection and
// recovery. Attempts run one at a time; after a failure the engine waits
// a capped exponential backoff, picks the next source per Mode, and —
// for MODE E transfers — resumes from the delivered-byte offset instead
// of restarting (extended block mode is the only modeled protocol whose
// framing makes partial transfers restartable).
type FailoverPolicy struct {
	// Mode picks the recovery strategy.
	Mode RetryMode
	// MaxAttempts bounds the total attempts; default DefaultMaxAttempts
	// (forced to 1 under NoRetry).
	MaxAttempts int
	// InitialBackoff is the wait after the first failure; each further
	// failure doubles it up to MaxBackoff.
	InitialBackoff time.Duration
	// MaxBackoff caps the growth; default DefaultMaxBackoff.
	MaxBackoff time.Duration
	// AttemptTimeout, when positive, abandons an attempt (setup
	// included) that has not completed in time — catching stalls the
	// path-down detector cannot see. Zero disables it.
	AttemptTimeout time.Duration
	// Rank, when set and Mode is FailoverReselect, orders the surviving
	// candidates best-first before each attempt — typically
	// core.SelectionServer.RankHosts scoring a pinned grid-state
	// snapshot. When nil, or when its first pick is not one of the
	// request's sources, the request's source order stands. alive is
	// scratch the transferrer reuses and is valid only during the call.
	// Rank may return it or a buffer of its own: the transfer reads only
	// the first element, before Rank runs again.
	Rank func(now time.Duration, alive []string) []string
}

func (p *FailoverPolicy) fillDefaults() error {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.Mode == NoRetry {
		p.MaxAttempts = 1
	}
	if p.InitialBackoff == 0 {
		p.InitialBackoff = DefaultInitialBackoff
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = DefaultMaxBackoff
	}
	if p.MaxAttempts < 0 || p.InitialBackoff < 0 || p.MaxBackoff < 0 || p.AttemptTimeout < 0 {
		return fmt.Errorf("%w: bad policy value", ErrFailoverConfig)
	}
	return nil
}

// AttemptOutcome classifies one failover attempt.
type AttemptOutcome int

const (
	// AttemptCompleted delivered the remaining payload.
	AttemptCompleted AttemptOutcome = iota
	// AttemptFailed lost its path mid-transfer (or at flow start).
	AttemptFailed
	// AttemptTimedOut hit the per-attempt timeout.
	AttemptTimedOut
)

func (o AttemptOutcome) String() string {
	switch o {
	case AttemptCompleted:
		return "completed"
	case AttemptFailed:
		return "failed"
	case AttemptTimedOut:
		return "timed-out"
	default:
		return fmt.Sprintf("AttemptOutcome(%d)", int(o))
	}
}

// Attempt is one entry in a failover transfer's provenance log.
type Attempt struct {
	// Source is the host this attempt pulled from.
	Source string
	// Started and Ended are virtual timestamps (setup included).
	Started, Ended time.Duration
	// BytesDelivered is the payload landed before the attempt ended;
	// for MODE E the next attempt resumed past it.
	BytesDelivered int64
	// Outcome classifies the attempt.
	Outcome AttemptOutcome
	// Err is the failure cause (nil when completed).
	Err error
}

// pickSource chooses the next attempt's source, by index into the
// request's candidate list. NoRetry and RetrySame pin the preferred
// (first) source; FailoverReselect takes the best surviving candidate,
// re-admitting burned sources once every candidate has failed (by then
// the fault may have cleared, and the attempt budget still bounds the
// run).
func (x *transfer) pickSource(now time.Duration) int {
	if x.pol.Mode != FailoverReselect {
		return 0
	}
	alive := x.t.alive[:0]
	for _, s := range x.req.Sources {
		if !x.burned(s) {
			alive = append(alive, s)
		}
	}
	if len(alive) == 0 {
		x.readmitted = len(x.res.Attempts)
		alive = append(alive, x.req.Sources...)
	}
	x.t.alive = alive
	pick := slices.Index(x.req.Sources, alive[0])
	if x.pol.Rank != nil {
		if ranked := x.pol.Rank(now, alive); len(ranked) > 0 {
			if i := slices.Index(x.req.Sources, ranked[0]); i >= 0 {
				pick = i
			}
		}
	}
	return pick
}

// burned reports whether src has failed since the last re-admission.
// Every logged attempt is a failure: a completed one ends the transfer.
func (x *transfer) burned(src string) bool {
	for _, a := range x.res.Attempts[x.readmitted:] {
		if a.Source == src {
			return true
		}
	}
	return false
}

// backoff returns the wait after the n-th failure.
func (x *transfer) backoff(n int) time.Duration {
	d := x.pol.InitialBackoff
	for i := 1; i < n; i++ {
		d = time.Duration(float64(d) * backoffFactor)
		if d >= x.pol.MaxBackoff {
			return x.pol.MaxBackoff
		}
	}
	if d > x.pol.MaxBackoff {
		d = x.pol.MaxBackoff
	}
	return d
}

// startAttempt is the attempt-sequence scheduler's step: one session at a
// time, from the picked source, carrying whatever has not landed yet. The
// attempt's log entry is opened here and closed by endAttempt; the
// attempt timeout is scheduled before the session's setup.
func (x *transfer) startAttempt() {
	engine := x.t.tb.Engine()
	now := engine.Now()
	if x.resume >= x.req.Bytes {
		// Everything landed across earlier attempts; nothing to resend.
		x.finishAttempts(nil)
		return
	}
	i := x.pickSource(now)
	x.res.Attempts = append(x.res.Attempts, Attempt{Source: x.req.Sources[i], Started: now})
	s := x.newSession(x.req.Sources[i:i+1], x.req.Bytes-x.resume, x.req.Options.Streams)
	if x.pol.AttemptTimeout > 0 {
		x.timeout, _ = engine.AfterHandler(x.pol.AttemptTimeout, (*attemptTimeout)(s))
	}
	if err := s.open((*session).launch); err != nil {
		s.end(err)
	}
}

// endAttempt is the attempt session's report: tear down what is left of
// it, close its log entry, and either finish the transfer or schedule the
// next attempt after backoff.
func (x *transfer) endAttempt(s *session, err error) {
	engine, net := x.t.tb.Engine(), x.t.tb.Network()
	engine.Cancel(x.timeout)
	var delivered int64
	for _, f := range s.flows {
		if f.State() == netsim.FlowActive {
			// Sibling channels of a failed or timed-out attempt are torn
			// down with the session.
			_ = net.CancelFlow(f)
		}
		delivered += f.DeliveredPayloadBytes()
	}
	n := len(x.res.Attempts)
	at := &x.res.Attempts[n-1]
	at.Ended, at.BytesDelivered, at.Err = engine.Now(), delivered, err
	switch {
	case err == nil:
		x.finishAttempts(nil)
		return
	case errors.Is(err, ErrAttemptTimeout):
		at.Outcome = AttemptTimedOut
	default:
		at.Outcome = AttemptFailed
	}
	// MODE E block framing carries offsets, so a restarted session can
	// extend a partial file; stream modes start over.
	if x.req.Options.Protocol == ProtoGridFTPModeE {
		x.resume = min(x.resume+delivered, x.req.Bytes)
	}
	if n >= x.pol.MaxAttempts {
		x.finishAttempts(fmt.Errorf("%w: %s after %d attempts: %v", ErrTransferFailed, x.pol.Mode, n, err))
		return
	}
	if _, err := engine.AfterHandler(x.backoff(n), (*restart)(x)); err != nil {
		x.finishAttempts(fmt.Errorf("%w: %v", ErrTransferFailed, err))
	}
}

// attemptTimeout is an attempt's timeout event: it abandons the attempt's
// session.
type attemptTimeout session

func (t *attemptTimeout) Fire(time.Duration) {
	s := (*session)(t)
	s.end(fmt.Errorf("%w after %v", ErrAttemptTimeout, s.x.pol.AttemptTimeout))
}

// restart is a failover transfer's backoff event: it starts the next
// attempt.
type restart transfer

func (r *restart) Fire(time.Duration) { (*transfer)(r).startAttempt() }

// finishAttempts delivers the failover Result: the serving host is the
// last attempt's source.
func (x *transfer) finishAttempts(err error) {
	x.res.Attempts = slices.Clip(x.res.Attempts)
	x.res.Src = x.res.Attempts[len(x.res.Attempts)-1].Source
	x.finish(err)
}
