// Package workload (testdata) exercises the seedflow analyzer inside
// the determinism scope: every RNG construction must trace its seed to
// a parameter, a seed-named field, or a call on one; hard-coded or
// untraceable seeds are flagged.
package workload

import "math/rand"

// Config carries the experiment seed, the blessed provenance root.
type Config struct {
	Seed      int64
	TrialSeed int64
	Arrival   float64
}

// package-level RNG state: constructed before any config exists.
var frozen = rand.NewSource(7) // want `package-level initializer cannot trace to the experiment seed`

var counter int64

// good: seed is a parameter.
func fromParam(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// good: seed comes from a field named like a seed.
func fromConfig(cfg Config) *rand.Rand {
	return rand.New(rand.NewSource(cfg.TrialSeed))
}

// good: locals assigned from blessed values stay blessed, including
// through arithmetic.
func fromLocal(cfg Config) *rand.Rand {
	s := cfg.Seed + 1
	shifted := s ^ 0x7f4a7c15
	return rand.New(rand.NewSource(shifted))
}

// deriveSeed mixes a root seed with labels, as runner.DeriveSeed does.
func deriveSeed(root int64, labels ...string) int64 {
	h := root
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			h = h*1099511628211 + int64(l[i])
		}
	}
	return h
}

// version takes no seed, so nothing it returns traces to one.
func version() int64 { return 3 }

// good: a call on a blessed argument yields a blessed seed.
func fromDeriver(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(seed, "warmup")))
}

// mix is a package-local seed deriver: pure function of its parameters.
func mix(a, b int64) int64 { return a*31 ^ b }

// good: the blessed argument may sit anywhere in the call.
func fromLocalDeriver(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(mix(17, seed)))
}

// bad: a hard-coded seed ignores the experiment's -seed entirely.
func hardcoded() *rand.Rand {
	return rand.New(rand.NewSource(42)) // want `seed does not trace to a config seed`
}

// bad: a call on no blessed argument traces to nothing.
func fromNonDeriver() rand.Source {
	return rand.NewSource(version()) // want `seed does not trace to a config seed`
}

// bad: package-level state is not seed provenance.
func fromGlobalState() rand.Source {
	s := counter
	return rand.NewSource(s) // want `seed does not trace to a config seed`
}

// not seedflow's: a global draw is determinism's finding, reported once.
func globalRand(n int) int {
	return rand.Intn(n)
}

// good: methods on a seeded *rand.Rand draw from their own source.
func methods(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.1, 1, 1<<20)
	return float64(z.Uint64()) + rng.Float64()
}

// suppressed: provenance established outside what the analyzer can see.
func pinned() rand.Source {
	return rand.NewSource(1234) //gridlint:seedflow-ok frozen golden stream pinned by the regression fixture
}
