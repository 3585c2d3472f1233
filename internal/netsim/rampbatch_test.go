package netsim

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

var updateRampGolden = flag.Bool("update", false, "rewrite testdata/ramp_stream_golden.txt from this tree")

// rampNet is a dumbbell with spokes of unequal delay, so transfers started
// together have mixed round trips, and one narrow spoke (s3) that its
// streams saturate in slow start. s4 has the round trip of s0 and s1, so
// its streams tick in their batches, and the narrow spoke d3 is what s0
// and s4 share.
func rampNet(t *testing.T) (*simulation.Engine, *Network) {
	t.Helper()
	eng := simulation.NewEngine()
	n := New(eng)
	for _, nd := range []string{"s0", "s1", "s2", "s3", "s4", "r1", "r2", "d0", "d1", "d2", "d3"} {
		if err := n.AddNode(nd); err != nil {
			t.Fatal(err)
		}
	}
	links := []struct {
		a, b  string
		bps   float64
		delay time.Duration
		loss  float64
	}{
		{"s0", "r1", 1e9, time.Millisecond, 0},
		{"s1", "r1", 1e9, time.Millisecond, 0},
		{"s2", "r1", 1e9, 3 * time.Millisecond, 1e-6},
		{"s3", "r1", 24e6, 2 * time.Millisecond, 0},
		{"s4", "r1", 1e9, time.Millisecond, 0},
		{"r1", "r2", 1e9, 4 * time.Millisecond, 1e-6},
		{"r2", "d0", 1e9, time.Millisecond, 0},
		{"r2", "d1", 1e9, time.Millisecond, 0},
		{"r2", "d2", 1e9, 5 * time.Millisecond, 0},
		{"r2", "d3", 30e6, time.Millisecond, 0},
	}
	for _, l := range links {
		if err := n.AddLink(l.a, l.b, LinkConfig{CapacityBps: l.bps, Delay: l.delay, LossRate: l.loss}); err != nil {
			t.Fatal(err)
		}
	}
	return eng, n
}

// rateRec is one rate change of a flow: the instant and the rate's bits.
type rateRec struct {
	at   time.Duration
	bits uint64
}

// rampRecorder keeps every flow's rate history, one entry per instant at
// which the rate ended up different from where the previous instant left
// it. How the events of one instant are cut up is therefore invisible;
// what each instant leaves behind is not.
type rampRecorder struct {
	eng   *simulation.Engine
	flows []*Flow
	recs  [][]rateRec
}

func (r *rampRecorder) add(f *Flow) {
	r.flows = append(r.flows, f)
	r.recs = append(r.recs, nil)
	r.observe()
}

func (r *rampRecorder) observe() {
	now := r.eng.Now()
	for i, f := range r.flows {
		recs := r.recs[i]
		if k := len(recs); k > 0 && recs[k-1].at == now {
			recs = recs[:k-1]
		}
		prev := math.Float64bits(0)
		if k := len(recs); k > 0 {
			prev = recs[k-1].bits
		}
		if cur := math.Float64bits(f.RateBps()); cur != prev {
			recs = append(recs, rateRec{now, cur})
		}
		r.recs[i] = recs
	}
}

// stepUntil fires events one at a time, observing after each, until stop
// is set or the engine runs dry.
func (r *rampRecorder) stepUntil(stop *bool) {
	for !*stop && r.eng.Step() {
		r.observe()
	}
}

// rampStream runs one seeded scenario and writes its record: starts of one
// to four streams sharing a pair (often two pairs in one callback, so
// round trips mix), cancels of one stream of a group and of a whole group,
// background load on the narrow spoke, and link failures under FailOnDown.
// Twice, a group starts 1 ns after an identical one with no event between.
// The run stops at a horizon just after every flow was canceled and one
// more group was started and canceled at once, and the engine's pending
// count there closes the record.
func rampStream(t *testing.T, w *bytes.Buffer, seed int64) {
	eng, n := rampNet(t)
	rng := rand.New(rand.NewSource(seed))
	rec := &rampRecorder{eng: eng}
	var groups [][]*Flow
	var opErr error
	check := func(err error) {
		if opErr == nil {
			opErr = err
		}
	}
	pairs := [][2]string{{"s0", "d0"}, {"s1", "d0"}, {"s0", "d1"}, {"s2", "d2"}, {"s3", "d0"}, {"s3", "d1"}, {"s1", "d2"}}
	start := func(pair [2]string, k int, opts FlowOptions, size int64) {
		var g []*Flow
		for s := 0; s < k; s++ {
			f, err := n.StartFlow(pair[0], pair[1], size, opts, nil)
			if errors.Is(err, ErrPathDown) {
				break // a FailOnDown start into a fault
			}
			if err != nil {
				check(err)
				return
			}
			rec.add(f)
			g = append(g, f)
		}
		groups = append(groups, g)
	}
	randomOpts := func() FlowOptions {
		opts := FlowOptions{
			WindowBytes: []int{64 << 10, 256 << 10, 1 << 20}[rng.Intn(3)],
			FailOnDown:  rng.Intn(2) == 0,
		}
		if rng.Intn(3) == 0 {
			opts.RateCapBps = []float64{5e6, 5e6 * (1 + allocEps/2), 40e6}[rng.Intn(3)]
		}
		return opts
	}
	cancel := func(f *Flow) {
		if f.State() == FlowActive {
			check(n.CancelFlow(f))
		}
	}
	// A group and its twin 1 ns later, with no event in between.
	twins := func() {
		pair, opts, size := pairs[rng.Intn(len(pairs))], randomOpts(), 1<<20+rng.Int63n(4<<20)
		start(pair, 2, opts, size)
		if err := eng.RunUntil(eng.Now() + time.Nanosecond); err != nil {
			t.Fatal(err)
		}
		rec.observe()
		start(pair, 2, opts, size)
	}
	op := func(time.Duration) {
		switch k := rng.Intn(10); {
		case k < 5:
			for g := 1 + rng.Intn(2); g > 0; g-- {
				start(pairs[rng.Intn(len(pairs))], 1+rng.Intn(4), randomOpts(), 256<<10+rng.Int63n(6<<20))
			}
		case k < 7:
			// One stream of the newest group still ramping together.
			for i := len(groups) - 1; i >= 0; i-- {
				var live []*Flow
				for _, f := range groups[i] {
					if f.State() == FlowActive {
						live = append(live, f)
					}
				}
				if len(live) >= 2 {
					cancel(live[rng.Intn(len(live))])
					break
				}
			}
		case k < 8:
			if len(groups) > 0 {
				for _, f := range groups[rng.Intn(len(groups))] {
					cancel(f)
				}
			}
		case k < 9:
			check(n.SetBackgroundLoad("s3", "r1", 0.8*rng.Float64()))
		default:
			l := [][2]string{{"r1", "r2"}, {"s0", "r1"}, {"r2", "d0"}}[rng.Intn(3)]
			check(n.SetLinkDown(l[0], l[1], true))
			_, err := eng.After(time.Duration(1+rng.Int63n(400))*time.Millisecond, func(time.Duration) {
				check(n.SetLinkDown(l[0], l[1], false))
			})
			check(err)
		}
	}
	const horizon = 4 * time.Second
	for i := 0; i < 16; i++ {
		if _, err := eng.Schedule(time.Millisecond+time.Duration(rng.Int63n(int64(3*time.Second))), op); err != nil {
			t.Fatal(err)
		}
	}
	var mid, end bool
	at := func(when time.Duration, fn func(time.Duration)) {
		if _, err := eng.Schedule(when, fn); err != nil {
			t.Fatal(err)
		}
	}
	// s4's stream then s0's, ticking in one batch: their third tick takes
	// the two windows past the d3 spoke, the spoke turns tight, and the
	// batch's one drain holds both streams to its fair share.
	at(200*time.Millisecond, func(time.Duration) {
		start([2]string{"s4", "d3"}, 1, FlowOptions{WindowBytes: 1 << 20}, 8<<20)
		start([2]string{"s0", "d3"}, 1, FlowOptions{WindowBytes: 1 << 20}, 8<<20)
	})
	at(1500*time.Millisecond+123457, func(time.Duration) { mid = true })
	at(horizon-time.Millisecond, func(time.Duration) {
		for _, f := range n.Flows() {
			cancel(f)
		}
		start(pairs[0], 3, FlowOptions{}, 1<<20)
		for _, f := range groups[len(groups)-1] {
			cancel(f)
		}
	})
	at(horizon, func(time.Duration) { end = true })

	twins()
	rec.stepUntil(&mid)
	twins()
	rec.stepUntil(&end)
	if opErr != nil {
		t.Fatalf("seed %d: %v", seed, opErr)
	}
	fmt.Fprintf(w, "== seed %d\n", seed)
	for i, f := range rec.flows {
		fmt.Fprintf(w, "flow %d %s->%s rtt=%v started=%v: %v at %v delivered=%d\n ",
			f.ID(), f.Src(), f.Dst(), f.RTT(), f.Started(), f.State(), f.Finished(), f.DeliveredPayloadBytes())
		for _, r := range rec.recs[i] {
			fmt.Fprintf(w, " %d:%016x", r.at, r.bits)
		}
		fmt.Fprintln(w)
	}
	s := n.ReallocStats()
	fmt.Fprintf(w, "pending=%d ramps=%d\n", eng.Pending(), s.Ramps)
}

// TestRampBatchEventStream pins what slow start does to every flow: each
// rate change (instant and bits), finish time, final state and delivered
// bytes, over seeded scenarios of same-instant streams, plus the engine's
// pending count at the horizon and the ramp tick counter. The golden was
// recorded with one engine event per flow per round trip; coalescing the
// ticks of one instant into one event must leave it byte-identical.
func TestRampBatchEventStream(t *testing.T) {
	var got bytes.Buffer
	for seed := int64(1); seed <= 6; seed++ {
		rampStream(t, &got, seed)
	}
	path := filepath.Join("testdata", "ramp_stream_golden.txt")
	if *updateRampGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("ramp stream diverges from %s at line %d:\n got: %.300s\nwant: %.300s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("ramp stream length differs from %s: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestRampJoinSeesForeignSchedule holds the join rule to the per-flow event
// order when something else runs between two streams' starts. A foreign
// event canceled there joins nothing, and the streams share one batch. A
// foreign cancel paired with a schedule at exactly the batch's instant
// leaves the engine's pending and fired counts where they were, but the
// scheduled event sits between the two ticks in the per-flow order: it must
// find the first stream's window doubled and the second's not yet.
func TestRampJoinSeesForeignSchedule(t *testing.T) {
	for _, reschedule := range []bool{false, true} {
		eng, n := islandNet(t)
		foreign, err := eng.Schedule(time.Hour, func(time.Duration) {})
		if err != nil {
			t.Fatal(err)
		}
		var f1, f2 *Flow
		var win1, win2 float64
		between, after := false, false
		at := func(d time.Duration, fn func()) {
			t.Helper()
			if _, err := eng.Schedule(d, func(time.Duration) { fn() }); err != nil {
				t.Fatal(err)
			}
		}
		at(time.Millisecond, func() {
			if f1, err = n.StartFlow("a1", "a3", 1<<30, FlowOptions{}, nil); err != nil {
				t.Fatal(err)
			}
			tick := eng.Now() + f1.rtt
			eng.Cancel(foreign)
			if reschedule {
				at(tick, func() { between = f1.cwndBps == 2*win1 && f2.cwndBps == win2 })
			}
			if f2, err = n.StartFlow("a1", "a3", 1<<30, FlowOptions{}, nil); err != nil {
				t.Fatal(err)
			}
			win1, win2 = f1.cwndBps, f2.cwndBps
			if joined := f1.ramp == f2.ramp; joined == reschedule {
				t.Fatalf("foreign schedule between the starts %v: the streams share a batch %v", reschedule, joined)
			}
			at(tick, func() { after = f1.cwndBps == 2*win1 && f2.cwndBps == 2*win2 })
		})
		if err := eng.RunUntil(time.Second); err != nil {
			t.Fatal(err)
		}
		if !after {
			t.Fatalf("foreign schedule %v: both windows were not doubled once the tick's instant was done", reschedule)
		}
		if reschedule && !between {
			t.Fatal("the foreign event did not fire between the two streams' ticks")
		}
	}
}

// TestSlowStartEndsAtStaticCap holds slow start to the flow's static cap:
// under an application cap below window/RTT the window doubles exactly
// ⌈log₂(cap/cwnd₀)⌉ times and the flow then sits in no batch, at its cap;
// a flow whose first window already meets its cap never ticks.
func TestSlowStartEndsAtStaticCap(t *testing.T) {
	eng, n := islandNet(t)
	const rateCap = 40e6
	f, err := n.StartFlow("a1", "a3", 1<<30, FlowOptions{RateCapBps: rateCap}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w := f.windowBps(); w <= rateCap {
		t.Fatalf("window/RTT %v does not exceed the application cap %v", w, rateCap)
	}
	want := uint64(math.Ceil(math.Log2(rateCap / f.cwndBps)))
	if err := eng.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := n.ReallocStats().Ramps; got != want || f.ramp != nil || f.ramping {
		t.Fatalf("capped flow ticked %d times (in a batch %v, ramping %v); want %d ticks, then none", got, f.ramp != nil, f.ramping, want)
	}
	if f.RateBps() != rateCap {
		t.Fatalf("capped flow runs at %v, want its cap %v", f.RateBps(), rateCap)
	}

	eng, n = islandNet(t)
	g, err := n.StartFlow("a1", "a3", 1<<30, FlowOptions{RateCapBps: 1e6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.ramp != nil || g.ramping || eng.Pending() != 1 {
		t.Fatalf("a flow whose first window meets its cap scheduled a tick: batch %v, ramping %v, %d events pending (want the completion alone)",
			g.ramp != nil, g.ramping, eng.Pending())
	}
	if err := eng.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := n.ReallocStats().Ramps; got != 0 || g.RateBps() != 1e6 {
		t.Fatalf("capped-from-start flow ticked %d times at %v b/s; want none at its cap", got, g.RateBps())
	}
}

// TestRampBatchDrainsOnce fires a batch of two streams whose first tick
// already makes their shared link tight: the batch ticks both and then
// drains once, water-filling the component.
func TestRampBatchDrainsOnce(t *testing.T) {
	eng := simulation.NewEngine()
	n := New(eng)
	for _, nd := range []string{"a", "b"} {
		if err := n.AddNode(nd); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AddLink("a", "b", LinkConfig{CapacityBps: 8e6, Delay: 4 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	var f [2]*Flow
	for i := range f {
		var err error
		if f[i], err = n.StartFlow("a", "b", 1<<30, FlowOptions{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	l := f[0].path[0]
	if f[0].ramp == nil || f[1].ramp != f[0].ramp || l.tight || 3*f[0].cwndBps <= l.cfg.CapacityBps {
		t.Fatalf("want two streams in one batch on a link with head-room that one tick makes tight (batch %v, tight %v, windows %v)",
			f[0].ramp != nil && f[1].ramp == f[0].ramp, l.tight, f[0].cwndBps)
	}
	before := n.ReallocStats()
	if !eng.Step() {
		t.Fatal("no ramp event pending")
	}
	s := n.ReallocStats()
	if ramps, drains, fills := s.Ramps-before.Ramps, s.Events-before.Events, (s.ComponentsDirtied-before.ComponentsDirtied)-(s.CapBound-before.CapBound); ramps != 2 || drains != 1 || fills != 1 {
		t.Fatalf("the batch ran %d ticks through %d drains, %d water-filled; want 2 ticks, one drain, a water-fill", ramps, drains, fills)
	}
	if !l.tight || f[0].RateBps() != 4e6 || f[1].RateBps() != 4e6 {
		t.Fatalf("after the batch: tight %v, rates %v and %v; want the tight link split evenly", l.tight, f[0].RateBps(), f[1].RateBps())
	}
}
