package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || m != 2.5 {
		t.Fatalf("Mean = %v, %v; want 2.5", m, err)
	}
	if _, err := Mean(nil); err != ErrEmpty {
		t.Fatalf("Mean(nil) err = %v, want ErrEmpty", err)
	}
}

// percentile returns the p-th percentile of xs (0 <= p <= 100) using linear
// interpolation between closest ranks: the exact reference the streaming
// sketch (quantile_test.go) is held to.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("metrics: percentile %v out of range [0,100]", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo], nil
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	p50, err := percentile(xs, 50)
	if err != nil || p50 != 5.5 {
		t.Fatalf("P50 = %v, %v; want 5.5", p50, err)
	}
	p0, _ := percentile(xs, 0)
	p100, _ := percentile(xs, 100)
	if p0 != 1 || p100 != 10 {
		t.Fatalf("P0=%v P100=%v, want 1 and 10", p0, p100)
	}
	if _, err := percentile(xs, -1); err == nil {
		t.Fatal("negative percentile should error")
	}
	if _, err := percentile(xs, 101); err == nil {
		t.Fatal("percentile > 100 should error")
	}
	one, err := percentile([]float64{42}, 75)
	if err != nil || one != 42 {
		t.Fatalf("single-element percentile = %v, %v", one, err)
	}
}

func TestMeanCI95(t *testing.T) {
	if _, _, err := MeanCI95(nil); err != ErrEmpty {
		t.Fatalf("MeanCI95(nil) err = %v, want ErrEmpty", err)
	}
	m, h, err := MeanCI95([]float64{7})
	if err != nil || m != 7 || h != 0 {
		t.Fatalf("single sample = (%v, %v, %v); want (7, 0, nil)", m, h, err)
	}
	// n=4: sample sd = 1.2909..., t(3 df) = 3.182, half = t*sd/sqrt(4).
	m, h, err = MeanCI95([]float64{1, 2, 3, 4})
	if err != nil || m != 2.5 {
		t.Fatalf("mean = %v, %v; want 2.5", m, err)
	}
	sd := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if want := 3.182 * sd / 2; !almostEqual(h, want, 1e-9) {
		t.Fatalf("half-width = %v, want %v", h, want)
	}
	// Identical samples: zero-width interval.
	if _, h, _ = MeanCI95([]float64{5, 5, 5}); h != 0 {
		t.Fatalf("constant sample half-width = %v, want 0", h)
	}
	// Large n falls back to the normal quantile.
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i % 2) // sd ~0.5, mean 0.5
	}
	_, h, _ = MeanCI95(big)
	sdBig := math.Sqrt(float64(len(big)) / float64(len(big)-1) * 0.25)
	if want := 1.960 * sdBig / math.Sqrt(200); !almostEqual(h, want, 1e-9) {
		t.Fatalf("large-n half-width = %v, want %v", h, want)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Fatalf("Pearson = %v, %v; want 1", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEqual(r, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", r)
	}
	if _, err := Pearson(xs, ys[:3]); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Fatal("too-short input should error")
	}
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Fatal("zero variance should error")
	}
}

func TestSpearman(t *testing.T) {
	// Monotone but non-linear relation: Spearman is exactly 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 4, 9, 16, 25}
	r, err := Spearman(xs, ys)
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Fatalf("Spearman = %v, %v; want 1", r, err)
	}
	rev := []float64{25, 16, 9, 4, 1}
	r, _ = Spearman(xs, rev)
	if !almostEqual(r, -1, 1e-12) {
		t.Fatalf("Spearman = %v, want -1", r)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{10, 20, 20, 30}
	r, err := Spearman(xs, ys)
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Fatalf("Spearman with ties = %v, %v; want 1", r, err)
	}
}

func TestSameOrder(t *testing.T) {
	ok, err := SameOrder([]float64{1, 2, 3}, []float64{10, 20, 30})
	if err != nil || !ok {
		t.Fatalf("SameOrder aligned = %v, %v", ok, err)
	}
	ok, _ = SameOrder([]float64{1, 2, 3}, []float64{10, 30, 20})
	if ok {
		t.Fatal("SameOrder should detect inversion")
	}
	// Ties in keys permit any value order within the group.
	ok, _ = SameOrder([]float64{1, 1, 2}, []float64{20, 10, 30})
	if !ok {
		t.Fatal("tied keys should allow any order")
	}
	if _, err := SameOrder([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestPropertyPercentileWithinRange(t *testing.T) {
	f := func(seed int64, n uint8, p uint8) bool {
		if n == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		pct := float64(p % 101)
		v, err := percentile(xs, pct)
		return err == nil && v >= slices.Min(xs) && v <= slices.Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySpearmanMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 3
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
		}
		// Ensure distinct xs so correlation is defined.
		sort.Float64s(xs)
		for i := 1; i < n; i++ {
			if xs[i] <= xs[i-1] {
				xs[i] = xs[i-1] + 1
			}
		}
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = math.Exp(xs[i] / 500) // strictly increasing transform
		}
		r, err := Spearman(xs, ys)
		return err == nil && almostEqual(r, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 1", "host", "score", "time")
	tb.AddRow("alpha4", "95.1", "12.3")
	tb.AddRow("hit0", "72.0", "45.6")
	out := tb.String()
	if out == "" {
		t.Fatal("empty table output")
	}
	for _, want := range []string{"Table 1", "host", "alpha4", "45.6", "---"} {
		if !contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "extra-dropped")
	out := tb.String()
	if contains(out, "extra-dropped") {
		t.Fatalf("extra cell should be dropped:\n%s", out)
	}
}

func TestRenderSeries(t *testing.T) {
	s1 := Series{Name: "FTP"}
	s2 := Series{Name: "GridFTP"}
	for _, x := range []float64{256, 512, 1024, 2048} {
		s1.AddPoint(x, x/10)
		s2.AddPoint(x, x/11)
	}
	out, err := RenderSeries("Figure 3", "MB", "sec", []Series{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 3", "FTP", "GridFTP", "256", "2048"} {
		if !contains(out, want) {
			t.Fatalf("series output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderSeriesErrors(t *testing.T) {
	if _, err := RenderSeries("t", "x", "y", nil); err != ErrEmpty {
		t.Fatal("empty series should be ErrEmpty")
	}
	a := Series{Name: "a", X: []float64{1, 2}, Y: []float64{1, 2}}
	b := Series{Name: "b", X: []float64{1}, Y: []float64{1}}
	if _, err := RenderSeries("t", "x", "y", []Series{a, b}); err == nil {
		t.Fatal("mismatched point counts should error")
	}
	c := Series{Name: "c", X: []float64{1, 3}, Y: []float64{1, 2}}
	if _, err := RenderSeries("t", "x", "y", []Series{a, c}); err == nil {
		t.Fatal("mismatched xs should error")
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(256) != "256" {
		t.Fatalf("trimFloat(256) = %q", trimFloat(256))
	}
	if trimFloat(0.5) != "0.5" {
		t.Fatalf("trimFloat(0.5) = %q", trimFloat(0.5))
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
