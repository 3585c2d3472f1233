package runner

// splitmix64Gamma is the golden-ratio increment of the SplitMix64
// generator (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014).
const splitmix64Gamma = 0x9E3779B97F4A7C15

// splitmix64Mix is the SplitMix64 output finalizer: a bijective
// avalanche mix, so distinct inputs always produce distinct outputs.
func splitmix64Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// DeriveSeed returns the index-th seed of the SplitMix64 stream rooted
// at base: splitmix64(base, index). Each (base, index) pair maps to a
// statistically independent seed, and for a fixed base the map
// index -> seed is injective, so jobs never share an RNG stream no
// matter how many there are.
//
// The published experiments do NOT pass this through to their worlds —
// they pin the verbatim base seed so their output stays byte-identical
// to the paper's sequential runs. Derived seeds serve the multi-trial
// replication path (experiments.Replicate, gridbench -trials) and
// gridperf's paper-suite seeds.
func DeriveSeed(base int64, index int) int64 {
	return int64(splitmix64Mix(uint64(base) + (uint64(index)+1)*splitmix64Gamma))
}
