package metrics

import (
	"fmt"
	"math"
	"sort"
)

// QuantileSketch is a streaming quantile estimator with a relative-accuracy
// guarantee: Quantile(q) returns a value within a factor of (1 ± alpha) of
// the exact q-quantile of the inserted stream, using memory proportional to
// the log of the value range rather than the stream length. Million-request
// runs keep tens of buckets instead of millions of samples.
//
// Values are assigned to logarithmic buckets: for x > 0, bucket index
// i = ceil(log_gamma(x)) with gamma = (1+alpha)/(1-alpha), so every value
// in bucket i is within alpha (relatively) of the bucket midpoint the
// estimator reports. Zeros get a dedicated counter.
//
// The sketch is a pure multiset of bucket counts, so any permutation of
// the same stream yields an identical sketch and identical quantiles —
// what the deterministic harness needs.
type QuantileSketch struct {
	gamma    float64
	invLnG   float64 // 1 / ln(gamma), precomputed for the hot path
	counts   map[int]uint64
	zeros    uint64
	total    uint64
	min, max float64
}

// NewQuantileSketch returns a sketch with the given relative accuracy
// (0 < alpha < 1). alpha = 0.01 keeps roughly 700 buckets per decade-range
// of nanosecond latencies and answers within 1%.
func NewQuantileSketch(alpha float64) *QuantileSketch {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("metrics: quantile sketch alpha %v out of range (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &QuantileSketch{
		gamma:  gamma,
		invLnG: 1 / math.Log(gamma),
		counts: make(map[int]uint64),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Add records one observation. x must be finite and non-negative —
// latencies, byte counts and rates all are, so a violation is a caller
// bug and panics per the impossible-error convention.
func (s *QuantileSketch) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
		panic(fmt.Sprintf("metrics: quantile sketch observation %v is not a finite non-negative value", x))
	}
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	s.total++
	if x == 0 {
		s.zeros++
		return
	}
	s.counts[s.bucket(x)]++
}

// bucket maps a positive value to its log-bucket index.
func (s *QuantileSketch) bucket(x float64) int {
	return int(math.Ceil(math.Log(x) * s.invLnG))
}

// value returns the representative midpoint of bucket i, within alpha
// (relatively) of every value the bucket holds.
func (s *QuantileSketch) value(i int) float64 {
	// Bucket i covers (gamma^(i-1), gamma^i]; the point equidistant in
	// relative terms from both edges is 2*gamma^i / (gamma+1).
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) of the
// inserted stream, within relative accuracy alpha of the exact value.
func (s *QuantileSketch) Quantile(q float64) (float64, error) {
	if s.total == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("metrics: quantile %v out of range [0,1]", q)
	}
	// The extremes are tracked exactly; report them exactly.
	if q == 0 {
		return s.min, nil
	}
	if q == 1 {
		return s.max, nil
	}
	// Rank of the target observation in the sorted stream (0-based,
	// nearest-rank like the exact estimator's anchor point).
	rank := uint64(q * float64(s.total-1))
	if rank < s.zeros {
		return 0, nil
	}
	keys := make([]int, 0, len(s.counts))
	for i := range s.counts {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	cum := s.zeros
	for _, i := range keys {
		cum += s.counts[i]
		if rank < cum {
			v := s.value(i)
			// The true min/max are tracked exactly; never report outside them.
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v, nil
		}
	}
	return s.max, nil
}
