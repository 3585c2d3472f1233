// Package netsim (testdata) exercises the determinism analyzer inside
// one of its scoped packages: order-sensitive map iteration and global
// math/rand draws are flagged; collect-then-sort, pure reductions,
// seeded generators and suppressed sites are not.
package netsim

import (
	"math/rand"
	"sort"
)

func globalRand() int {
	return rand.Intn(10) // want `rand\.Intn draws from the process-global source`
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `rand\.Shuffle draws from the process-global source`
}

func seeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

func orderFeedsOutput(m map[string]int, sink func(string)) {
	for k := range m { // want `map iteration order is randomized`
		sink(k)
	}
}

func orderFeedsSchedule(m map[string]int, out []string) []string {
	for k := range m { // want `map iteration order is randomized`
		out = append(out, k)
	}
	return out // appended but never sorted: order escapes
}

// registerRegions hands each region's publisher to the server and keeps
// it in a list meant to follow the region order; a map walk breaks both
// orders while every ranked result stays the same.
func registerRegions(hubs map[string]string, add func(region, hub string)) []string {
	var order []string
	for region, hub := range hubs { // want `map iteration order is randomized`
		add(region, hub)
		order = append(order, region)
	}
	return order
}

func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func filteredCollectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k, v := range m {
		if v > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func pureReduction(m map[string]int) int {
	best := 0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

func suppressed(m map[string]int, sink func(string)) {
	//gridlint:determinism-ok sink is idempotent per key in this fixture
	for k := range m {
		sink(k)
	}
}

func sliceRangeIsFine(xs []string, sink func(string)) {
	for _, x := range xs {
		sink(x)
	}
}
