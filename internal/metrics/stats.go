// Package metrics provides the small statistics and reporting toolkit used
// across the experiment harness: means and confidence intervals, a
// streaming quantile sketch, correlation measures for validating the cost
// model, and plain-text table and series rendering in the style of the
// paper's figures.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty input.
var ErrEmpty = errors.New("metrics: empty input")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// tTable95 holds the two-sided 95% critical values of Student's t for
// 1..30 degrees of freedom; larger samples fall back to the normal 1.96.
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// MeanCI95 returns the sample mean of xs and the half-width of its
// two-sided 95% confidence interval under Student's t (sample standard
// deviation, n-1 degrees of freedom). A single sample has an undefined
// interval; its half-width is reported as 0.
func MeanCI95(xs []float64) (mean, half float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	mean, _ = Mean(xs)
	n := len(xs)
	if n < 2 {
		return mean, 0, nil
	}
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	t := 1.960
	if df := n - 1; df <= len(tTable95) {
		t = tTable95[df-1]
	}
	return mean, t * sd / math.Sqrt(float64(n)), nil
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("metrics: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, errors.New("metrics: need at least 2 points for correlation")
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("metrics: zero variance input")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// ranks assigns fractional ranks (average of tied ranks) to xs.
func ranks(xs []float64) []float64 {
	type iv struct {
		i int
		v float64
	}
	s := make([]iv, len(xs))
	for i, v := range xs {
		s[i] = iv{i, v}
	}
	sort.Slice(s, func(a, b int) bool { return s[a].v < s[b].v })
	r := make([]float64, len(xs))
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j].v == s[i].v {
			j++
		}
		// average rank for the tie group [i, j)
		avg := float64(i+j-1)/2 + 1
		for k := i; k < j; k++ {
			r[s[k].i] = avg
		}
		i = j
	}
	return r
}

// Spearman returns the Spearman rank correlation between xs and ys. It is
// the statistic used in EXPERIMENTS.md to check that cost-model scores
// order replicas the same way measured transfer times do.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("metrics: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, errors.New("metrics: need at least 2 points for correlation")
	}
	return Pearson(ranks(xs), ranks(ys))
}

// SameOrder reports whether sorting keys ascending induces the same
// permutation as sorting values ascending (i.e. the two metrics agree on
// the ranking). Ties in either slice are allowed to match any order within
// the tie group.
func SameOrder(keys, values []float64) (bool, error) {
	if len(keys) != len(values) {
		return false, fmt.Errorf("metrics: length mismatch %d vs %d", len(keys), len(values))
	}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	for i := 1; i < len(idx); i++ {
		if values[idx[i]] < values[idx[i-1]] && keys[idx[i]] != keys[idx[i-1]] {
			return false, nil
		}
	}
	return true, nil
}
