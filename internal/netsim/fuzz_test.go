package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// FuzzNetsimOps drives a small network through the fuzzer's operations and
// holds the allocator to its oracles after every drain, every operation and
// every engine event: the partition and its certificates (checkPartition),
// each component's water-fill bit for bit (the cap-bound storms' refill, one
// component in three read through UsedBps first) and max-min fairness over
// the whole network (conservation).
//
// The global water-fill that StepGlobal compares bit for bit is not the
// oracle here. It fixes a flow in another component's round when the two
// round minima are unequal but within allocEps (the seam of the
// decomposition proof in docs/PERFORMANCE.md), and on graphs this small the
// seam is common: two components of three flows on 1 Mb/s links reach
// shares one ulp apart. There the partition is right and the reference is
// off by that ulp.
//
// The bytes decode, one draw per byte and 0 once they run out, to a graph
// of at most 8 nodes and up to 96 operations:
//
//	nodes (2 + b%7), links (1 + b%16), then per link: endpoint, endpoint,
//	config (capacity, delay and loss, two bits each; a background walk
//	on the first direction, and its period)
//	op b%8 = 0..2  StartFlow: src, dst, size, options (window or overhead or
//	               rate cap, FailOnDown, a twin stream on the same path)
//	         3     CancelFlow: which active flow
//	         4     SetLinkDown toggle: which link
//	         5     SetBackgroundLoad: which link, which fraction
//	         6     step to the next event
//	         7     advance by a duration: (1 + b%64) x 100 ms
//
// After the last operation every link comes back up and the engine runs on
// until it is dry, for at most 4,000 events. The committed seeds under testdata/fuzz/FuzzNetsimOps replay the
// partition-equivalence scripts (their seeds, option mix and fault
// episodes) on an 8-node two-region graph.
func FuzzNetsimOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &opBytes{data: data}
		n := fuzzNet(t, r)
		o := &capBoundOracle{n: n, rng: rand.New(rand.NewSource(int64(len(data)))), pre: make(map[*Flow]flowAnchor)}
		var tally StormTally
		drainErr, unwatch := o.watch(func() error { return o.after(&tally) })
		defer unwatch()
		check := func(when string) {
			t.Helper()
			err := *drainErr
			if err == nil {
				err = o.after(&tally)
			}
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			checkPartition(t, n, when) // reads every link's usage first
			if err := conservation(n); err != nil {
				t.Errorf("%s: %v", when, err)
			}
			if t.Failed() {
				t.FailNow()
			}
			o.before()
		}
		step := func(when string) bool {
			t.Helper()
			if !n.engine.Step() {
				return false
			}
			check(fmt.Sprintf("%s, event at %v", when, n.engine.Now()))
			return true
		}
		o.before()
		for op := 0; op < 96 && len(r.data) > 0; op++ {
			when := fmt.Sprintf("op %d", op)
			switch k := r.next(8); k {
			case 0, 1, 2:
				fuzzStart(t, n, r)
			case 3:
				if fl := n.Flows(); len(fl) > 0 {
					if err := n.CancelFlow(fl[r.next(len(fl))]); err != nil {
						t.Fatal(err)
					}
				}
			case 4:
				l := n.linkList[r.next(len(n.linkList))]
				if err := n.SetLinkDown(l.from, l.to, !l.down); err != nil {
					t.Fatal(err)
				}
			case 5:
				l := n.linkList[r.next(len(n.linkList))]
				if err := n.SetBackgroundLoad(l.from, l.to, 0.95*float64(r.next(10))/10); err != nil {
					t.Fatal(err)
				}
			case 6:
				step(when)
				continue
			case 7:
				done := false
				d := time.Duration(1+r.next(64)) * 100 * time.Millisecond
				if _, err := n.engine.After(d, func(time.Duration) { done = true }); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 400 && !done && step(when); i++ {
				}
				continue
			}
			check(when)
		}
		for _, l := range n.linkList {
			if l.down {
				if err := n.SetLinkDown(l.from, l.to, false); err != nil {
					t.Fatal(err)
				}
				check("restore " + l.from + "->" + l.to)
			}
		}
		for i := 0; i < 4000 && step("drain"); i++ {
		}
	})
}

// opBytes answers each draw with the next byte modulo k, and 0 once the
// bytes run out.
type opBytes struct{ data []byte }

func (r *opBytes) next(k int) int {
	if len(r.data) == 0 {
		return 0
	}
	v := int(r.data[0]) % k
	r.data = r.data[1:]
	return v
}

// fuzzNet decodes the graph: nodes n0.., then links whose endpoints differ
// and are not linked yet. A graph without a link gets n0-n1.
func fuzzNet(t *testing.T, r *opBytes) *Network {
	n := New(simulation.NewEngine())
	nodes := 2 + r.next(7)
	for i := 0; i < nodes; i++ {
		if err := n.AddNode(fmt.Sprintf("n%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 1 + r.next(16); k > 0 || len(n.linkList) == 0; k-- {
		a, b, c := r.next(nodes), r.next(nodes), r.next(256)
		if k <= 0 {
			a, b = 0, 1
		}
		cfg := LinkConfig{
			CapacityBps: []float64{1e6, 10e6, 100e6, 1e9}[c&3],
			Delay:       []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 40 * time.Millisecond}[c>>2&3],
			LossRate:    []float64{0, 1e-5, 1e-3, 0}[c>>4&3],
		}
		if a == b {
			continue
		}
		if _, err := n.GetLink(fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b)); err == nil {
			continue
		}
		if err := n.AddLink(fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b), cfg); err != nil {
			t.Fatal(err)
		}
		if c&64 != 0 {
			// A background walk on a->b: awake while a flow crosses it.
			bg := BackgroundConfig{Mean: 0.2, Volatility: 0.05, Reversion: 0.3}
			if err := n.StartBackground(fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b), bg, int64(len(n.linkList))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return n
}

// fuzzStart starts one flow, or two on the same path, with the options the
// equivalence scripts draw from; unroutable pairs and FailOnDown starts
// into a fault are skipped. Unequal caps within allocEps of each other are
// left to the cap-bound storms, which refill each component alone: in two
// components they meet the seam of the global pass, which fixes a flow in
// another component's round (docs/PERFORMANCE.md, the decomposition proof).
func fuzzStart(t *testing.T, n *Network, r *opBytes) {
	nodes := len(n.nodeNames)
	src, dst := n.nodeNames[r.next(nodes)], n.nodeNames[r.next(nodes)]
	size := int64(64<<10) << r.next(8)
	o := r.next(256)
	opts := FlowOptions{WindowBytes: 64 << 10, FailOnDown: o&8 != 0}
	switch o & 7 {
	case 0:
		opts.WindowBytes = 1 << 20
	case 1:
		opts.OverheadFraction = 0.01
	case 2:
		opts.RateCapBps = 50e6
	case 3:
		opts.WindowBytes = 8 << 10
	case 4:
		opts.RateCapBps = 5e6
	}
	if src == dst {
		return
	}
	for s := 0; s <= o>>4&1; s++ {
		if _, err := n.StartFlow(src, dst, size, opts, nil); err != nil && !errors.Is(err, ErrNoRoute) && !errors.Is(err, ErrPathDown) {
			t.Fatal(err)
		}
	}
}
