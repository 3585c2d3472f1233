package main

import "testing"

func TestSummarize(t *testing.T) {
	s := summarize([]float64{9, 1, 5})
	if s.Median != 5 || s.Min != 1 || s.Max != 9 || s.N != 3 {
		t.Errorf("summarize = %+v", s)
	}
	if m := summarize([]float64{4, 1, 3, 2}).Median; m != 2.5 {
		t.Errorf("median of four = %v, want 2.5", m)
	}
	if s := summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

// The highest percentile reported is the highest one with at least ten
// samples beyond it: p99 needs 1000 samples, p95 200, p90 100.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
		p    float64
	}{
		{50, 99, 50}, {99, 99, 50}, {100, 99, 90}, {200, 99, 95}, {999, 99, 95},
		{1000, 99, 99}, {1_000_000, 99, 99}, {1_000_000, 99.9, 99.9}, {1000, 90, 90},
	} {
		p, v := tailPercentile(ramp(c.n), c.want)
		if p != c.p {
			t.Errorf("n=%d want p%v: got p%v, want p%v", c.n, c.want, p, c.p)
		}
		if exact := percentile(ramp(c.n), p); v != exact {
			t.Errorf("n=%d: value %v is not the p%v value %v", c.n, v, p, exact)
		}
	}
	if v := percentile(ramp(101), 99); v != 99 {
		t.Errorf("p99 of 0..100 = %v, want 99", v)
	}
}
