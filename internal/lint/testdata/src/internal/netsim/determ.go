// Package netsim (testdata) exercises the determinism analyzer inside
// one of its scoped packages: order-sensitive map iteration and global
// math/rand draws are flagged, positional writes and float sums
// included; collect-then-sort, pure reductions, seeded generators and
// suppressed sites are not.
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

// fillBuckets is rebuildAdjacency's edge fill walking a map: each edge
// lands at the next free offset of its bucket, so the order inside a
// bucket is the walk's.
func fillBuckets(edges map[int]int, off []int, adj []int) {
	for from, to := range edges { // want `map iteration order is randomized`
		adj[off[to]] = from
		off[to]++
	}
}

// floatSum rounds differently in each order.
func floatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `map iteration order is randomized`
		sum += v
	}
	return sum
}

// intCount is exact in any order.
func intCount(m map[string]int) (positive, total int) {
	for _, v := range m {
		if v > 0 {
			positive++
		}
		total += v
	}
	return positive, total
}

// skew is traffic's collector reduction: an integer total and a max.
func skew(served map[string]uint64) float64 {
	var max, total uint64
	for _, n := range served {
		total += n
		if n > max {
			max = n
		}
	}
	return float64(max) / float64(total)
}

// copyByKey stores through the range key only: one slot per key.
func copyByKey(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
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
