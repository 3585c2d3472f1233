package workload

import (
	"math"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/simulation"
)

func TestPaperSweeps(t *testing.T) {
	if len(PaperFileSizesMB) != 4 || PaperFileSizesMB[0] != 256 || PaperFileSizesMB[3] != 2048 {
		t.Fatalf("file sizes = %v", PaperFileSizesMB)
	}
	if len(PaperStreamCounts) != 6 || PaperStreamCounts[0] != 0 || PaperStreamCounts[5] != 16 {
		t.Fatalf("stream counts = %v", PaperStreamCounts)
	}
}

func TestRequestGeneratorValidation(t *testing.T) {
	eng := simulation.NewEngine()
	emit := func(string) {}
	if _, err := NewRequestGenerator(nil, RequestConfig{Files: []string{"f"}, RatePerMinute: 1}, emit); err == nil {
		t.Fatal("nil engine should be rejected")
	}
	if _, err := NewRequestGenerator(eng, RequestConfig{Files: []string{"f"}, RatePerMinute: 1}, nil); err == nil {
		t.Fatal("nil emit should be rejected")
	}
	if _, err := NewRequestGenerator(eng, RequestConfig{RatePerMinute: 1}, emit); err == nil {
		t.Fatal("no files should be rejected")
	}
	if _, err := NewRequestGenerator(eng, RequestConfig{Files: []string{"f"}}, emit); err == nil {
		t.Fatal("zero rate should be rejected")
	}
	for _, s := range []float64{0.5, 1, -1} {
		if _, err := NewRequestGenerator(eng, RequestConfig{Files: []string{"f"}, RatePerMinute: 1, ZipfS: s}, emit); err == nil {
			t.Fatalf("Zipf s = %v should be rejected (0 is uniform, > 1 is Zipf)", s)
		}
	}
}

func TestRequestGeneratorPoissonRate(t *testing.T) {
	eng := simulation.NewEngine()
	count := 0
	g, err := NewRequestGenerator(eng, RequestConfig{
		Files: []string{"a", "b"}, RatePerMinute: 60, Seed: 1,
	}, func(string) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(60 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// 60/min over 60 min = 3600 expected; Poisson sd = 60.
	if count < 3300 || count > 3900 {
		t.Fatalf("requests = %d, want ~3600", count)
	}
	if g.arrivals.Count() != count {
		t.Fatalf("Requests() = %d, count = %d", g.arrivals.Count(), count)
	}
}

func TestRequestGeneratorZipfSkew(t *testing.T) {
	eng := simulation.NewEngine()
	counts := map[string]int{}
	files := []string{"hot", "warm", "cool", "cold"}
	if _, err := NewRequestGenerator(eng, RequestConfig{
		Files: files, RatePerMinute: 600, ZipfS: 2.0, Seed: 2,
	}, func(f string) { counts[f]++ }); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(60 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if counts["hot"] <= counts["cold"]*3 {
		t.Fatalf("Zipf skew missing: %v", counts)
	}
}

func TestRequestGeneratorUniform(t *testing.T) {
	eng := simulation.NewEngine()
	counts := map[string]int{}
	files := []string{"a", "b", "c"}
	if _, err := NewRequestGenerator(eng, RequestConfig{
		Files: files, RatePerMinute: 600, Seed: 3,
	}, func(f string) { counts[f]++ }); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		frac := float64(counts[f]) / float64(counts["a"]+counts["b"]+counts["c"])
		if math.Abs(frac-1.0/3) > 0.05 {
			t.Fatalf("uniform pick skewed: %v", counts)
		}
	}
}

func TestRequestGeneratorStop(t *testing.T) {
	eng := simulation.NewEngine()
	count := 0
	g, err := NewRequestGenerator(eng, RequestConfig{
		Files: []string{"f"}, RatePerMinute: 60, Seed: 4,
	}, func(string) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	g.arrivals.Stop()
	frozen := count
	if err := eng.RunUntil(20 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if count != frozen {
		t.Fatal("generator kept emitting after Stop")
	}
}

func TestRequestGeneratorDeterministic(t *testing.T) {
	runOnce := func() []string {
		eng := simulation.NewEngine()
		var got []string
		if _, err := NewRequestGenerator(eng, RequestConfig{
			Files: []string{"a", "b", "c"}, RatePerMinute: 30, ZipfS: 1.5, Seed: 9,
		}, func(f string) { got = append(got, f) }); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunUntil(10 * time.Minute); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestRequestGeneratorStreamGolden pins the full (arrival-time, file)
// stream bitwise for one seed, not just the file sequence: the arrival
// clock is part of every downstream experiment's event order, so a
// silent change to the draw sequence (e.g. reordering the ExpFloat64
// and pick calls) must fail loudly here.
func TestRequestGeneratorStreamGolden(t *testing.T) {
	type ev struct {
		at time.Duration
		f  string
	}
	eng := simulation.NewEngine()
	var got []ev
	if _, err := NewRequestGenerator(eng, RequestConfig{
		Files: []string{"a", "b", "c"}, RatePerMinute: 60, ZipfS: 1.5, Seed: 42,
	}, func(f string) { got = append(got, ev{eng.Now(), f}) }); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	golden := []ev{
		{495738414, "c"},
		{648971866, "b"},
		{764936104, "a"},
		{1623951333, "a"},
		{3021756130, "a"},
		{6505139589, "b"},
	}
	if len(got) != 621 {
		t.Fatalf("stream length = %d, want 621", len(got))
	}
	for i, want := range golden {
		if got[i] != want {
			t.Errorf("event %d = {%d, %q}, want {%d, %q}",
				i, got[i].at, got[i].f, want.at, want.f)
		}
	}
}

// TestRequestGeneratorInterArrivalExponential checks the arrival
// process is actually exponential, not just roughly the right rate: the
// mean matches 1/rate and the coefficient of variation is ~1 (an
// exponential's signature; a uniform or constant gap would fail).
func TestRequestGeneratorInterArrivalExponential(t *testing.T) {
	eng := simulation.NewEngine()
	var arrivals []time.Duration
	if _, err := NewRequestGenerator(eng, RequestConfig{
		Files: []string{"f"}, RatePerMinute: 600, Seed: 11,
	}, func(string) { arrivals = append(arrivals, eng.Now()) }); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) < 1000 {
		t.Fatalf("only %d arrivals", len(arrivals))
	}
	var gaps []float64
	prev := time.Duration(0)
	for _, at := range arrivals {
		gaps = append(gaps, (at - prev).Seconds())
		prev = at
	}
	var sum float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / float64(len(gaps))
	if math.Abs(mean-0.1) > 0.01 { // 600/min = 10/s: mean gap 100ms
		t.Errorf("mean inter-arrival = %.4fs, want ~0.1s", mean)
	}
	var sq float64
	for _, g := range gaps {
		sq += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(sq/float64(len(gaps))) / mean
	if cv < 0.9 || cv > 1.1 {
		t.Errorf("coefficient of variation = %.3f, want ~1 (exponential)", cv)
	}
}

// TestJobGeneratorDeterministic: two identically-seeded job streams must
// agree bitwise on placement counts and on every host's load trajectory
// at checkpoint instants (the generator perturbs experiment worlds, so
// any draw-order drift would silently change published numbers).
func TestJobGeneratorDeterministic(t *testing.T) {
	runOnce := func() []float64 {
		eng := simulation.NewEngine()
		tb, err := cluster.NewPaperTestbed(eng)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewJobGenerator(tb, JobConfig{
			Hosts:         []string{"alpha1", "alpha2"},
			RatePerMinute: 30,
			MeanDuration:  2 * time.Minute,
			CPU:           0.3,
			IO:            0.2,
			Seed:          5,
		})
		if err != nil {
			t.Fatal(err)
		}
		var trace []float64
		for ckpt := 5 * time.Minute; ckpt <= 30*time.Minute; ckpt += 5 * time.Minute {
			if err := eng.RunUntil(ckpt); err != nil {
				t.Fatal(err)
			}
			trace = append(trace, float64(g.placed))
			for _, name := range []string{"alpha1", "alpha2"} {
				h, _ := tb.Host(name)
				trace = append(trace, h.CPULoad(), h.IOLoad())
			}
		}
		return trace
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if a[len(a)-3] == 0 {
		t.Fatal("no jobs placed; the determinism check is vacuous")
	}
}

func TestJobGenerator(t *testing.T) {
	eng := simulation.NewEngine()
	tb, err := cluster.NewPaperTestbed(eng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewJobGenerator(tb, JobConfig{
		Hosts:         []string{"alpha1", "alpha2"},
		RatePerMinute: 30,
		MeanDuration:  2 * time.Minute,
		CPU:           0.3,
		IO:            0.2,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(20 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if g.placed < 5 {
		t.Fatalf("placed = %d, want several", g.placed)
	}
	// Load must be bounded and, with rate*duration*0.3 offered load,
	// typically nonzero on at least one host at some point; check bounds.
	for _, name := range []string{"alpha1", "alpha2"} {
		h, _ := tb.Host(name)
		if h.CPULoad() < 0 || h.CPULoad() > 1 {
			t.Fatalf("host %s load %v", name, h.CPULoad())
		}
	}
	g.arrivals.Stop()
	placed := g.placed
	if err := eng.RunUntil(40 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if g.placed != placed {
		t.Fatal("jobs kept arriving after Stop")
	}
	// All jobs eventually release: after the stop and long drain, load
	// should have returned to zero.
	if err := eng.RunUntil(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha1", "alpha2"} {
		h, _ := tb.Host(name)
		if h.CPULoad() > 1e-9 {
			t.Fatalf("host %s still loaded %v after drain", name, h.CPULoad())
		}
	}
}

func TestJobGeneratorValidation(t *testing.T) {
	eng := simulation.NewEngine()
	tb, err := cluster.NewPaperTestbed(eng)
	if err != nil {
		t.Fatal(err)
	}
	base := JobConfig{Hosts: []string{"alpha1"}, RatePerMinute: 1, MeanDuration: time.Second}
	if _, err := NewJobGenerator(nil, base); err == nil {
		t.Fatal("nil testbed should be rejected")
	}
	for name, cfg := range map[string]JobConfig{
		"no hosts":     {RatePerMinute: 1, MeanDuration: time.Second},
		"unknown host": {Hosts: []string{"ghost"}, RatePerMinute: 1, MeanDuration: time.Second},
		"zero rate":    {Hosts: []string{"alpha1"}, MeanDuration: time.Second},
		"zero dur":     {Hosts: []string{"alpha1"}, RatePerMinute: 1},
		"bad cpu":      {Hosts: []string{"alpha1"}, RatePerMinute: 1, MeanDuration: time.Second, CPU: 1.5},
	} {
		if _, err := NewJobGenerator(tb, cfg); err == nil {
			t.Fatalf("config %q should be rejected", name)
		}
	}
}
