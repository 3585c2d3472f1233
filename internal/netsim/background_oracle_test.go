package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// A link's background walk steps on events only while a flow crosses it,
// and an idle link's readers catch it up by the ticker's tie rule. This
// file is the judge: each scenario runs twice on a small random network,
// once with StartBackground and once with the walks stepped by tickers,
// as StartBackground did before it slept idle links. Flows start (one or
// several streams) and cancel on and off the one-second grid; readers of
// AvailableBps, PathRTTLoaded, a link's background, effective capacity
// and utilization, and every flow's rate run at instants on and off the
// grid, scheduled below, at and above one period ahead, and outside any
// event. Every read, completion time and cancel result must agree bit for
// bit, and the lazy links must have stepped on events exactly the ticks
// that found a flow on the link.

const bgPeriod = time.Second

// startTickerBackground is the reference: the same walk as
// StartBackground, stepped by a ticker started with it whether or not a
// flow crosses the link. crossed counts the ticks that found one.
func startTickerBackground(n *Network, l *Link, cfg BackgroundConfig, seed int64, crossed *int) error {
	load := cfg.Mean
	w, err := simulation.NewWalk(n.engine, cfg.Period, seed, nil, simulation.WalkAxis{
		V: &load, Mean: cfg.Mean, Reversion: cfg.Reversion, Volatility: cfg.Volatility, Max: cfg.Max})
	if err != nil {
		return err
	}
	n.setBackgroundLoad(l, load)
	_, err = n.engine.NewTicker(cfg.Period, false, func(time.Duration) {
		if l.nflows > 0 {
			*crossed++
		}
		w.Advance()
		n.setBackgroundLoad(l, load)
	})
	return err
}

// bgScenario is one drawn script; both worlds replay it.
type bgScenario struct {
	nodes int
	links []bgLink
	walks []bgWalk
	flows []bgFlow
	reads []bgRead
	chain []int // the pair the one-period reader chain reads at its k-th tick, cycled
	stops []time.Duration
}

type bgLink struct {
	a, b int
	cfg  LinkConfig
}

type bgWalk struct {
	link int // index into the directed links, in creation order
	cfg  BackgroundConfig
	seed int64
}

type bgFlow struct {
	src, dst, streams int
	bytes             int64
	start, cancel     time.Duration // cancel < 0: none
	opts              FlowOptions
}

type bgRead struct {
	at, lead  time.Duration
	pair, dir int // a node pair (src*nodes+dst) and a directed link
}

// onGrid draws an instant in [0, horizon): on the grid one time in two,
// else anywhere on a millisecond.
func onGrid(r *rand.Rand, horizon time.Duration) time.Duration {
	if r.Intn(2) == 0 {
		return time.Duration(r.Int63n(int64(horizon/bgPeriod))) * bgPeriod
	}
	return time.Duration(r.Int63n(int64(horizon/time.Millisecond))) * time.Millisecond
}

func drawBgScenario(seed int64) bgScenario {
	r := rand.New(rand.NewSource(seed))
	const horizon = 30 * time.Second
	s := bgScenario{nodes: 4 + r.Intn(4)}
	caps := []float64{10 * mbps, 50 * mbps, 100 * mbps}
	joined := map[[2]int]bool{}
	link := func(a, b int) {
		if a == b || joined[[2]int{a, b}] || joined[[2]int{b, a}] {
			return
		}
		joined[[2]int{a, b}] = true
		s.links = append(s.links, bgLink{a, b, LinkConfig{
			CapacityBps: caps[r.Intn(len(caps))],
			Delay:       time.Duration(1+r.Intn(20)) * time.Millisecond,
			LossRate:    []float64{0, 0, 1e-4}[r.Intn(3)],
		}})
	}
	for i := 1; i < s.nodes; i++ { // a random tree, then a few chords
		link(r.Intn(i), i)
	}
	for k := r.Intn(3); k > 0; k-- {
		link(r.Intn(s.nodes), r.Intn(s.nodes))
	}
	for d := 0; d < 2*len(s.links); d++ {
		if r.Intn(3) > 0 {
			s.walks = append(s.walks, bgWalk{d, BackgroundConfig{
				Mean:       0.05 + 0.45*r.Float64(),
				Volatility: 0.02 + 0.1*r.Float64(),
				Reversion:  0.1 + 0.4*r.Float64(),
				Period:     bgPeriod,
				Max:        []float64{0, 0.8}[r.Intn(2)],
			}, r.Int63()})
		}
	}
	pair := func() int {
		a := r.Intn(s.nodes)
		b := (a + 1 + r.Intn(s.nodes-1)) % s.nodes
		return a*s.nodes + b
	}
	for k := 20 + r.Intn(20); k > 0; k-- {
		p := pair()
		f := bgFlow{src: p / s.nodes, dst: p % s.nodes, streams: 1, bytes: int64(1+r.Intn(40)) * 100_000,
			start: onGrid(r, horizon), cancel: -1}
		if r.Intn(4) == 0 {
			f.streams = 2 + r.Intn(3)
		}
		if r.Intn(3) == 0 {
			f.cancel = f.start + onGrid(r, 4*bgPeriod)
		}
		if r.Intn(3) == 0 {
			f.opts.RateCapBps = caps[r.Intn(len(caps))] * r.Float64()
		}
		s.flows = append(s.flows, f)
	}
	leads := []time.Duration{bgPeriod / 4, bgPeriod / 2, 3 * bgPeriod / 2, 3 * bgPeriod}
	for k := 150; k > 0; k-- {
		rd := bgRead{at: onGrid(r, horizon), lead: leads[r.Intn(len(leads))], pair: pair(), dir: r.Intn(2 * len(s.links))}
		if rd.at >= rd.lead {
			s.reads = append(s.reads, rd)
		}
	}
	for k := 0; k < 8; k++ {
		s.chain = append(s.chain, pair())
	}
	for k := 40; k > 0; k-- {
		s.stops = append(s.stops, onGrid(r, horizon))
	}
	return s
}

// bgWorld replays a scenario and logs what it saw.
type bgWorld struct {
	t     *testing.T
	s     bgScenario
	eng   *simulation.Engine
	n     *Network
	dirs  []*Link
	flows [][]*Flow
	log   []string
	lazy  bool
	// crossed counts the reference's ticks that found a flow.
	crossed int
	tally   *bgTally
}

// bgTally counts what the scenarios covered.
type bgTally struct {
	idleGridReads map[time.Duration]int // by lead; 0 is outside any event
	wakesOnGrid   int
	wakesOffGrid  int
	steps         int
}

func (w *bgWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v ", w.eng.Now())+fmt.Sprintf(format, args...))
}

func bits(x float64) uint64 { return math.Float64bits(x) }

func (w *bgWorld) name(i int) string { return fmt.Sprintf("n%d", i) }

func newBgWorld(t *testing.T, s bgScenario, lazy bool, tally *bgTally) *bgWorld {
	t.Helper()
	w := &bgWorld{t: t, s: s, eng: simulation.NewEngine(), lazy: lazy, tally: tally}
	w.n = New(w.eng)
	for i := 0; i < s.nodes; i++ {
		if err := w.n.AddNode(w.name(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range s.links {
		if err := w.n.AddLink(w.name(l.a), w.name(l.b), l.cfg); err != nil {
			t.Fatal(err)
		}
		for _, d := range [][2]int{{l.a, l.b}, {l.b, l.a}} {
			dl, err := w.n.GetLink(w.name(d[0]), w.name(d[1]))
			if err != nil {
				t.Fatal(err)
			}
			w.dirs = append(w.dirs, dl)
		}
	}
	for _, bw := range s.walks {
		l := w.dirs[bw.link]
		if lazy {
			if err := w.n.StartBackground(l.from, l.to, bw.cfg, bw.seed); err != nil {
				t.Fatal(err)
			}
		} else {
			cfg := bw.cfg
			if cfg.Max == 0 {
				cfg.Max = 0.95
			}
			if err := startTickerBackground(w.n, l, cfg, bw.seed, &w.crossed); err != nil {
				t.Fatal(err)
			}
		}
	}
	return w
}

// read logs everything a reader sees; lead is how far ahead it was
// scheduled, 0 outside any event.
func (w *bgWorld) read(lead time.Duration, pair, dir int) {
	src, dst := w.name(pair/w.s.nodes), w.name(pair%w.s.nodes)
	if w.tally != nil && w.eng.Now()%bgPeriod == 0 {
		path, err := w.n.Route(src, dst)
		if err != nil {
			w.t.Fatal(err)
		}
		for _, l := range append([]*Link{w.dirs[dir]}, path...) {
			if l.walk != nil && l.nflows == 0 {
				w.tally.idleGridReads[lead]++
			}
		}
	}
	avail, err := w.n.AvailableBps(src, dst)
	if err != nil {
		w.t.Fatal(err)
	}
	rtt, err := w.n.PathRTTLoaded(src, dst)
	if err != nil {
		w.t.Fatal(err)
	}
	l := w.dirs[dir]
	w.logf("read lead=%v %s->%s avail=%x rtt=%v link %d bg=%x eff=%x util=%x", lead, src, dst,
		bits(avail), rtt, dir, bits(l.BackgroundLoad()), bits(l.EffectiveCapacity()), bits(l.Utilization()))
	for i, fs := range w.flows {
		for j, f := range fs {
			w.logf("  flow %d.%d %v rate=%x", i, j, f.State(), bits(f.RateBps()))
		}
	}
	w.logf("  steps=%d", w.steps())
}

// steps is how many background steps ran as events on a crossed link: on
// the lazy links every setBackgroundLoad but StartBackground's own is
// one; the reference counts them at its ticks.
func (w *bgWorld) steps() int {
	if w.lazy {
		return int(w.n.pstats.CapacityEvents) - len(w.s.walks)
	}
	return w.crossed
}

func (w *bgWorld) schedule(at time.Duration, fn func(time.Duration)) {
	if _, err := w.eng.Schedule(at, fn); err != nil {
		w.t.Fatal(err)
	}
}

func (w *bgWorld) run() []string {
	s := w.s
	w.flows = make([][]*Flow, len(s.flows))
	for i, f := range s.flows {
		w.schedule(f.start, func(time.Duration) {
			src, dst := w.name(f.src), w.name(f.dst)
			if w.tally != nil {
				path, _ := w.n.Route(src, dst)
				for _, l := range path {
					if l.walk != nil && l.nflows == 0 {
						if w.eng.Now()%bgPeriod == 0 {
							w.tally.wakesOnGrid++
						} else {
							w.tally.wakesOffGrid++
						}
					}
				}
			}
			for k := 0; k < f.streams; k++ {
				fl, err := w.n.StartFlow(src, dst, f.bytes, f.opts, func(fl *Flow) {
					w.logf("done %d.%d %v", i, k, fl.State())
				})
				if err != nil {
					w.t.Fatal(err)
				}
				w.flows[i] = append(w.flows[i], fl)
			}
		})
		if f.cancel >= 0 {
			w.schedule(f.cancel, func(time.Duration) {
				for k, fl := range w.flows[i] {
					err := w.n.CancelFlow(fl)
					w.logf("cancel %d.%d err=%v", i, k, err)
				}
			})
		}
	}
	for _, rd := range s.reads {
		w.schedule(rd.at-rd.lead, func(time.Duration) {
			w.schedule(rd.at, func(time.Duration) { w.read(rd.lead, rd.pair, rd.dir) })
		})
	}
	// The one reader chain one period ahead: a ticker younger than every
	// walk, the only kind of same-period reader the tie rule covers.
	k := 0
	if _, err := w.eng.NewTicker(bgPeriod, false, func(time.Duration) {
		w.read(bgPeriod, w.s.chain[k%len(w.s.chain)], k%len(w.dirs))
		k++
	}); err != nil {
		w.t.Fatal(err)
	}
	stops := append(slices.Clone(s.stops), 40*bgPeriod)
	slices.Sort(stops)
	for i, at := range stops {
		if err := w.eng.RunUntil(at); err != nil {
			w.t.Fatal(err)
		}
		w.read(0, w.s.chain[i%len(w.s.chain)], i%len(w.dirs))
	}
	if w.tally != nil {
		w.tally.steps += w.steps()
	}
	return w.log
}

func TestBackgroundOnDemandMatchesTickers(t *testing.T) {
	cases := max(*oracleCases/20, 10)
	tally := &bgTally{idleGridReads: map[time.Duration]int{}}
	for seed := int64(1); seed <= int64(cases); seed++ {
		s := drawBgScenario(seed)
		got := newBgWorld(t, s, true, tally).run()
		want := newBgWorld(t, s, false, nil).run()
		for i := 0; i < len(got) || i < len(want); i++ {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				g, w := "nothing", "nothing"
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				t.Fatalf("seed %d, observation %d:\n lazy   %s\n ticker %s", seed, i, g, w)
			}
		}
	}
	t.Logf("%d scenarios: %+v", cases, *tally)
	for _, lead := range []time.Duration{0, bgPeriod / 4, bgPeriod / 2, bgPeriod, 3 * bgPeriod / 2, 3 * bgPeriod} {
		if tally.idleGridReads[lead] == 0 {
			t.Errorf("no idle link read on the grid %v ahead", lead)
		}
	}
	if tally.wakesOnGrid == 0 || tally.wakesOffGrid == 0 || tally.steps == 0 {
		t.Errorf("generator lost its edge cases: %+v", *tally)
	}
}
