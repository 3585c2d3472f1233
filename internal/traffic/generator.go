package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/hpclab/datagrid/internal/workload"
)

// request is one buffered client arrival, waiting for the next dispatch
// drain.
type request struct {
	at    time.Duration
	file  string
	bytes int64
	dst   string
}

// generator is one region's client population: a seeded arrival process
// with a private RNG, drawing file, size and destination per arrival and
// buffering the result until the driver drains it at the next dispatch
// boundary. The driver reads the buffer only between engine runs.
type generator struct {
	region  string
	rng     *rand.Rand
	hot     *rand.Zipf
	warm    *rand.Zipf
	cold    *rand.Zipf
	spec    Spec
	hotEnd  int
	warmEnd int
	hosts   []string
	names   []string

	arrivals *workload.Arrivals
	pending  []request
}

// newGenerator wires region index r's arrival process onto the world's
// engine. The RNG seed folds the region index so every region draws an
// independent, reproducible stream.
func newGenerator(w *world, r int) (*generator, error) {
	spec := w.spec
	region := w.Top.Regions[r]
	hotEnd, warmEnd := spec.classBounds()
	g := &generator{
		region:  region,
		rng:     rand.New(rand.NewSource(spec.Seed + 1000 + int64(r)*7919)),
		spec:    spec,
		hotEnd:  hotEnd,
		warmEnd: warmEnd,
		hosts:   w.Top.HostsByRegion[region],
		names:   w.names,
	}
	if len(g.hosts) == 0 {
		return nil, fmt.Errorf("traffic: region %s has no hosts", region)
	}
	// Zipf samplers per class, all drawing from the generator's one RNG:
	// rank 0 is the class's most popular file.
	mk := func(n int) (*rand.Zipf, error) {
		z := rand.NewZipf(g.rng, spec.ZipfS, 1, uint64(n-1))
		if z == nil {
			return nil, fmt.Errorf("traffic: bad Zipf parameters s=%v n=%d", spec.ZipfS, n)
		}
		return z, nil
	}
	var err error
	if g.hot, err = mk(hotEnd); err != nil {
		return nil, err
	}
	if g.warm, err = mk(warmEnd - hotEnd); err != nil {
		return nil, err
	}
	if g.cold, err = mk(spec.Files - warmEnd); err != nil {
		return nil, err
	}

	// Diurnal intensity: regions are phase-shifted by index so load
	// follows the sun around the generated planet.
	base, amp := spec.RatePerMinute, spec.DiurnalAmplitude
	period, phase := spec.DiurnalPeriod.Seconds(), float64(r)/float64(len(w.Top.Regions))
	rate := func(now time.Duration) float64 {
		if amp == 0 {
			return base
		}
		return base * (1 + amp*math.Sin(2*math.Pi*(now.Seconds()/period+phase)))
	}
	g.arrivals, err = workload.NewArrivals(w.Testbed.Engine(), g.rng, rate,
		func(now time.Duration) { g.fire(now) })
	if err != nil {
		return nil, err
	}
	return g, nil
}

// fire draws one request.
func (g *generator) fire(now time.Duration) {
	var idx int
	switch u := g.rng.Float64(); {
	case u < g.spec.HotShare:
		idx = int(g.hot.Uint64())
	case u < g.spec.HotShare+g.spec.WarmShare:
		idx = g.hotEnd + int(g.warm.Uint64())
	default:
		idx = g.warmEnd + int(g.cold.Uint64())
	}
	g.pending = append(g.pending, request{
		at:    now,
		file:  g.names[idx],
		bytes: g.spec.SizesMB[g.rng.Intn(len(g.spec.SizesMB))] * workload.MB,
		dst:   g.hosts[g.rng.Intn(len(g.hosts))],
	})
}

// take hands the buffered arrivals to the driver and empties the buffer,
// which the next arrival reuses: the driver must be done with them before
// the engine runs again. Must only run between engine runs.
func (g *generator) take() []request {
	out := g.pending
	g.pending = out[:0]
	return out
}

// stop halts the arrival process.
func (g *generator) stop() { g.arrivals.Stop() }
