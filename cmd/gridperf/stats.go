package main

import (
	"math"
	"sort"
)

// summary is how gridperf reports a set of repeated measurements: the
// median, with the extremes and the sample count beside it.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	return summary{Median: percentile(s, 50), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile of an ascending sample by linear
// interpolation between the two nearest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// percentileLadder are the percentiles gridperf reports timings at.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of the ladder, no higher
// than want, that has at least ten samples beyond it, with its value. A
// sample too small for any rung but the median reports the median.
func tailPercentile(sorted []float64, want float64) (p, v float64) {
	p = percentileLadder[0]
	for _, rung := range percentileLadder[1:] {
		if beyond := float64(len(sorted)) * (100 - rung) / 100; rung > want || beyond+1e-9 < 10 {
			break
		}
		p = rung
	}
	return p, percentile(sorted, p)
}
