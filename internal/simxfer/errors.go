package simxfer

import "errors"

// Sentinel errors for every rejection the transfer API can make, so
// callers branch with errors.Is instead of matching message substrings.
// Wrapped returns carry the offending value in the message.
var (
	// ErrNilDone rejects a Request without a completion callback.
	ErrNilDone = errors.New("simxfer: nil completion callback")
	// ErrNoSources rejects a Request with an empty source list.
	ErrNoSources = errors.New("simxfer: no sources")
	// ErrNonPositiveSize rejects a zero or negative payload size.
	ErrNonPositiveSize = errors.New("simxfer: transfer size must be positive")
	// ErrSameEndpoint rejects a source equal to the destination.
	ErrSameEndpoint = errors.New("simxfer: source equals destination")
	// ErrDuplicateSource rejects a source listed twice.
	ErrDuplicateSource = errors.New("simxfer: duplicate source")
	// ErrNegativeOption rejects negative transfer options (streams,
	// stripes, buffers and block sizes).
	ErrNegativeOption = errors.New("simxfer: negative option")
	// ErrSingleChannel rejects parallel or striped configurations on a
	// protocol that supports only one data channel.
	ErrSingleChannel = errors.New("simxfer: protocol supports a single data channel")
	// ErrStripedCoalloc rejects combining striping with co-allocation.
	ErrStripedCoalloc = errors.New("simxfer: striping and co-allocation do not compose")
	// ErrUnknownScheme rejects an unrecognized co-allocation scheme.
	ErrUnknownScheme = errors.New("simxfer: unknown scheme")
	// ErrFailoverConfig rejects request shapes the failover engine does
	// not support (co-allocation schemes, striping, bad policy values).
	ErrFailoverConfig = errors.New("simxfer: option not supported with failover")
	// ErrTransferFailed is the terminal Result.Err once a failover
	// transfer has exhausted its attempt budget.
	ErrTransferFailed = errors.New("simxfer: transfer failed")
	// ErrAttemptTimeout marks an attempt ended by the per-attempt
	// timeout rather than a path failure.
	ErrAttemptTimeout = errors.New("simxfer: attempt timed out")
)
