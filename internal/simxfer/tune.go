package simxfer

import (
	"errors"
	"math"

	"github.com/hpclab/datagrid/internal/netsim"
)

// MaxRecommendedStreams caps automatic parallelism at the paper's largest
// measured configuration.
const MaxRecommendedStreams = 16

// RecommendStreams computes the MODE E parallelism that just saturates the
// path from src to dst: a single stream is bounded by min(window/RTT,
// Mathis loss limit), the path by its currently available bandwidth, so
// the recommended count is their quotient (clamped to [1, max]). This is
// the tuning decision GridFTP admins of the era made by hand from NWS
// data; deriving it from measurements answers the spirit of the paper's
// future work on smarter transfer configuration.
func RecommendStreams(net *netsim.Network, src, dst string, windowBytes int, maxStreams int) (int, error) {
	if windowBytes <= 0 {
		windowBytes = netsim.DefaultWindowBytes
	}
	if maxStreams <= 0 {
		maxStreams = MaxRecommendedStreams
	}
	if net == nil {
		return 0, errors.New("simxfer: nil network")
	}
	// The four probes share one failure mode: an unroutable pair fails
	// the first of them.
	rtt, err := net.PathRTT(src, dst)
	if err != nil {
		return 0, err
	}
	loss, _ := net.PathLossRate(src, dst)
	line, _ := net.BottleneckBps(src, dst)
	avail, _ := net.AvailableBps(src, dst)
	// Never plan for less than a tenth of the line rate: a momentarily
	// saturated link still deserves a fair-share attempt.
	if avail < line/10 {
		avail = line / 10
	}

	perStream := math.Inf(1)
	if rtt > 0 {
		perStream = float64(windowBytes) * 8 / rtt.Seconds()
		// Mathis limit with the standard MSS.
		if loss > 0 {
			if m := netsim.MSS * 8 / rtt.Seconds() * 1.22 / math.Sqrt(loss); m < perStream {
				perStream = m
			}
		}
	}
	if math.IsInf(perStream, 1) || perStream >= avail {
		return 1, nil
	}
	streams := int(math.Ceil(avail / perStream))
	if streams < 1 {
		streams = 1
	}
	if streams > maxStreams {
		streams = maxStreams
	}
	return streams, nil
}
