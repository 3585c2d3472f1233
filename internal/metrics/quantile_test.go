package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// TestQuantileSketchDeterminism pins the order-independence contract: the
// same multiset of observations, inserted in different orders, must yield
// bit-identical quantiles.
func TestQuantileSketchDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()) * 1e6
	}

	fwd := NewQuantileSketch(0.01)
	for _, x := range xs {
		fwd.Add(x)
	}
	rev := NewQuantileSketch(0.01)
	for i := len(xs) - 1; i >= 0; i-- {
		rev.Add(xs[i])
	}

	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		want, err := fwd.Quantile(q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", q, err)
		}
		got, err := rev.Quantile(q)
		if err != nil || got != want {
			t.Fatalf("reverse-order Quantile(%v) = %v, %v; want %v", q, got, err, want)
		}
	}
}

// TestQuantileSketchAccuracy checks the relative-accuracy guarantee against
// the exact estimator on seeded distributions of different shapes.
func TestQuantileSketchAccuracy(t *testing.T) {
	const alpha = 0.01
	rng := rand.New(rand.NewSource(11))
	dists := map[string]func() float64{
		"uniform":     func() float64 { return rng.Float64() * 1000 },
		"exponential": func() float64 { return rng.ExpFloat64() * 50 },
		"lognormal":   func() float64 { return math.Exp(rng.NormFloat64()*2 + 10) },
	}
	names := []string{"uniform", "exponential", "lognormal"}
	for _, name := range names {
		draw := dists[name]
		xs := make([]float64, 20000)
		sk := NewQuantileSketch(alpha)
		for i := range xs {
			xs[i] = draw()
			sk.Add(xs[i])
		}
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			exact, err := percentile(xs, q*100)
			if err != nil {
				t.Fatalf("percentile: %v", err)
			}
			got, err := sk.Quantile(q)
			if err != nil {
				t.Fatalf("Quantile: %v", err)
			}
			// The sketch guarantees alpha relative to the nearest-rank
			// sample; the exact estimator interpolates between ranks, so
			// allow one extra alpha of slack for the interpolation gap.
			if tol := 2 * alpha * exact; math.Abs(got-exact) > tol {
				t.Errorf("%s q=%v: sketch %v vs exact %v exceeds tolerance %v", name, q, got, exact, tol)
			}
		}
	}
}

func TestQuantileSketchEdges(t *testing.T) {
	s := NewQuantileSketch(0.02)
	if _, err := s.Quantile(0.5); err != ErrEmpty {
		t.Fatalf("empty Quantile err = %v, want ErrEmpty", err)
	}
	s.Add(0)
	s.Add(0)
	s.Add(0)
	s.Add(10)
	if q, err := s.Quantile(0); err != nil || q != 0 {
		t.Fatalf("Quantile(0) = %v, %v; want 0", q, err)
	}
	if q, err := s.Quantile(1); err != nil || q != 10 {
		t.Fatalf("Quantile(1) = %v, %v; want clamped max 10", q, err)
	}
	if _, err := s.Quantile(1.5); err == nil {
		t.Fatal("Quantile(1.5) should error")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) should panic")
		}
	}()
	s.Add(-1)
}

// TestQuantileSketchSteadyStateAllocs pins the zero-allocation steady
// state: once the value range has been seen, Add touches only existing
// buckets and must not allocate. This is what keeps million-request
// collection flat.
func TestQuantileSketchSteadyStateAllocs(t *testing.T) {
	s := NewQuantileSketch(0.01)
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = math.Exp(rng.NormFloat64()) * 1e6
		s.Add(vals[i]) // warm up: materialize every bucket these values hit
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		s.Add(vals[i%len(vals)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Add allocates %v times per op, want 0", allocs)
	}
}
