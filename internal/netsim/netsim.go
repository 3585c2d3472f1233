// Package netsim is a flow-level wide-area network simulator. It models the
// Data Grid testbed's WAN behaviour at the granularity the paper measures:
// per-TCP-stream throughput limited by receive window and random loss
// (the Mathis steady-state model), slow-start ramp-up, max-min fair sharing
// of link capacity among concurrent flows, and time-varying background
// traffic. It deliberately does not simulate packets: a 2 GB GridFTP
// transfer is a handful of flow events, not a billion packet events.
//
// The simulator is driven by a simulation.Engine; all API calls must happen
// on the engine goroutine (from event callbacks or between RunUntil calls).
//
// The hot paths (rate reallocation, routing, event plumbing) are written to
// be allocation-free in steady state so that large grids simulate at memory
// speed; see docs/PERFORMANCE.md for the data layout and the invariants the
// incremental structures maintain.
package netsim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// mathisC is the constant of the Mathis et al. TCP throughput model:
// rate <= MSS/RTT * C/sqrt(p).
const mathisC = 1.22

// MSS is the TCP maximum segment size of every flow (standard
// Ethernet MTU minus headers).
const MSS = 1460

// initialCwnd is the slow-start initial congestion window in segments.
const initialCwnd = 2

// allocEps is the relative tolerance the water-filling allocator uses when
// deciding that a flow's limit equals the round's minimum.
const allocEps = 1e-9

// headRoom is the share of a link's effective capacity the summed caps of
// its flows must leave free for the link to count as unable to bind: a
// thousand allocEps, so neither the rounding of a water-fill's capacity
// subtractions nor the drift of the incrementally kept Link.demand can
// carry a fair share into a cap's epsilon band (docs/PERFORMANCE.md, "The
// cap-bound path").
const headRoom = 1e-6

// LinkConfig describes one direction of a network link.
type LinkConfig struct {
	// CapacityBps is the raw line rate in bits per second.
	CapacityBps float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// LossRate is the steady-state packet loss probability (0..1). On a
	// lossy path this, not the line rate, is what limits a single TCP
	// stream — the effect the paper's parallel-stream experiment exploits.
	LossRate float64
}

func (c LinkConfig) validate() error {
	if c.CapacityBps <= 0 {
		return fmt.Errorf("netsim: link capacity must be positive, got %v", c.CapacityBps)
	}
	if c.Delay < 0 {
		return fmt.Errorf("netsim: negative link delay %v", c.Delay)
	}
	if c.LossRate < 0 || c.LossRate >= 1 {
		return fmt.Errorf("netsim: loss rate %v out of [0,1)", c.LossRate)
	}
	return nil
}

// Link is one direction of a physical link.
type Link struct {
	from, to string
	cfg      LinkConfig
	// idx is the link's dense index into Network.linkList and the
	// allocator's scratch arrays; fromIdx and toIdx are its endpoints'
	// dense node indices, which routing walks.
	idx            int
	fromIdx, toIdx int32
	// bgLoad is the fraction of capacity consumed by background (non-grid)
	// traffic, in [0,1).
	bgLoad float64
	// walk moves bgLoad (StartBackground), or is nil. It steps on its own
	// event while a flow crosses the link, moving their rates, and is
	// caught up by reads while none does (settle).
	walk *simulation.Walk
	// usedBps is the total rate currently allocated to simulated flows, as
	// the owning component's last water-fill summed it. A cap-bound event
	// leaves it behind (component.stale); readers go through UsedBps.
	usedBps float64
	// nflows is the number of active flows whose path crosses this link.
	nflows int
	// demand is the summed caps of those flows (each booked at no more than
	// the line rate, so it stays finite), kept incrementally and reset to
	// exactly 0 when the link empties. tight caches whether it breaks the
	// headRoom margin; retight keeps the owning component's count in step.
	demand float64
	tight  bool
	// down marks a failed link: zero effective capacity, so flows across
	// it stall (they do not abort — TCP would retry forever too). It
	// shares tight's word, with slot, so a Link stays in the 144-byte
	// size class.
	down bool
	// slot is the link's position in its component's links, so a link that
	// empties leaves the list in O(1); tree is the flow that joined it to
	// the component, its parent in the component's spanning forest (nil for
	// an unoccupied link, and for a link that is its tree's root).
	slot int32
	tree *Flow
	net  *Network
}

// Down reports whether the link is failed.
func (l *Link) Down() bool { return l.down }

// settle applies the background steps an idle link owes a read at this
// instant. A crossed link's walk is awake: its steps are events.
func (l *Link) settle() {
	if l.nflows == 0 {
		l.walk.Advance()
	}
}

// EffectiveCapacity returns line rate minus background traffic, or zero
// when the link is down.
func (l *Link) EffectiveCapacity() float64 {
	l.settle()
	return l.effective()
}

// effective is EffectiveCapacity without the catch-up, for the allocator:
// the water-fill reads only crossed links, whose walk is awake, and
// retight's verdict on an idle link, which has no demand, is "not tight"
// whatever its load.
func (l *Link) effective() float64 {
	if l.down {
		return 0
	}
	return l.cfg.CapacityBps * (1 - l.bgLoad)
}

// BackgroundLoad returns the current background traffic fraction.
func (l *Link) BackgroundLoad() float64 {
	l.settle()
	return l.bgLoad
}

// UsedBps returns the rate currently allocated to simulated flows.
func (l *Link) UsedBps() float64 {
	if cid := l.net.linkComp[l.idx]; cid >= 0 {
		if c := l.net.comps[cid]; c.stale {
			l.net.rebuildUsed(c)
		}
	}
	return l.usedBps
}

// Utilization returns (background + allocated)/capacity in [0,1].
func (l *Link) Utilization() float64 {
	l.settle()
	u := (l.cfg.CapacityBps*l.bgLoad + l.UsedBps()) / l.cfg.CapacityBps
	return math.Min(u, 1)
}

type linkKey struct{ from, to string }

// FlowOptions tunes a single simulated TCP connection.
type FlowOptions struct {
	// WindowBytes is the effective TCP window (min of send/receive buffer).
	// It caps throughput at WindowBytes/RTT. Defaults to 64 KiB, the
	// classic un-tuned TCP buffer of the paper's era.
	WindowBytes int
	// RateCapBps imposes an additional application-level cap (e.g. the
	// sending host's disk read rate). Zero means no cap.
	RateCapBps float64
	// OverheadFraction inflates the payload to account for protocol
	// framing (e.g. GridFTP MODE E block headers). 0.01 means 1% extra
	// bytes on the wire.
	OverheadFraction float64
	// FailOnDown makes the flow fail (state FlowFailed, done callback
	// invoked) when a link on its path goes down, instead of the default
	// behavior of stalling at zero rate until the link recovers. Transfer
	// layers that implement failover opt in so they can detect the break;
	// legacy flows are untouched.
	FailOnDown bool
}

// DefaultWindowBytes is the TCP window used when FlowOptions does not set
// one.
const DefaultWindowBytes = 64 * 1024

// FlowState enumerates the lifecycle of a flow.
type FlowState int

const (
	// FlowActive means the flow is transferring.
	FlowActive FlowState = iota
	// FlowDone means all bytes were delivered.
	FlowDone
	// FlowCanceled means the flow was aborted before completion.
	FlowCanceled
	// FlowFailed means a link on the flow's path went down while the flow
	// had FailOnDown set; the remaining bytes were not delivered.
	FlowFailed
)

func (s FlowState) String() string {
	switch s {
	case FlowActive:
		return "active"
	case FlowDone:
		return "done"
	case FlowCanceled:
		return "canceled"
	case FlowFailed:
		return "failed"
	default:
		return fmt.Sprintf("FlowState(%d)", int(s))
	}
}

// Flow is one simulated TCP connection transferring a fixed number of bytes.
type Flow struct {
	id       int64
	src, dst string
	path     []*Link
	net      *Network
	// comp is the connected component the flow currently belongs to (nil
	// once the flow is terminal).
	comp      *component
	wireBytes float64 // total bytes on the wire including overhead
	// remaining is the wire bytes left at virtual time settledAt — an
	// anchor rewritten only when the flow's rate changes, projected
	// forward by remainingAt. completionAt caches when the flow drains at
	// the current rate (noCompletion when stalled).
	remaining    float64
	settledAt    time.Duration
	completionAt time.Duration
	opts         FlowOptions
	state        FlowState

	rtt  time.Duration
	loss float64

	// staticCapBps memoizes the flow's constant rate bound: min(window/RTT,
	// Mathis) further clamped by any application cap. rtt, loss and opts
	// never change after StartFlow, so it is computed once there; only
	// the slow-start window still varies (capBps folds it in while ramping).
	staticCapBps float64

	// cwndBps is the slow-start limited rate; it doubles every RTT while it
	// is below staticCapBps, and ramping is set exactly then. ramp is the
	// batch holding the flow's next tick (nil once ramping ends).
	cwndBps  float64
	ramp     *rampBatch
	rateBps  float64 // current allocated rate
	started  time.Duration
	finished time.Duration
	done     FlowHandler
	// The two flags share one word: apart, each padded its own, and the
	// 16-byte done would push a Flow from the 256-byte size class into
	// the 288-byte one (TestFlowSize).
	ramping bool
	fixed   bool // water-filling scratch: rate fixed this reallocation
	// up is the dense index of the link the flow joined its component
	// through, its parent in the spanning forest; -1 for a root flow. It
	// shares the flags' word.
	up int32
}

// FlowHandler receives a flow's end: FlowEnded runs on the engine
// goroutine once the flow has completed or failed (a canceled flow
// reports nothing). A record that starts flows implements it, so a flow
// costs no callback allocation.
type FlowHandler interface {
	FlowEnded(f *Flow)
}

// FlowFunc adapts a function to FlowHandler.
type FlowFunc func(f *Flow)

// FlowEnded calls fn.
func (fn FlowFunc) FlowEnded(f *Flow) { fn(f) }

// ID returns the unique flow identifier.
func (f *Flow) ID() int64 { return f.id }

// Src returns the sending node name.
func (f *Flow) Src() string { return f.src }

// Dst returns the receiving node name.
func (f *Flow) Dst() string { return f.dst }

// State returns the flow lifecycle state.
func (f *Flow) State() FlowState { return f.state }

// RateBps returns the currently allocated rate in bits per second.
func (f *Flow) RateBps() float64 { return f.rateBps }

// Started returns the virtual time the flow began.
func (f *Flow) Started() time.Duration { return f.started }

// Finished returns the virtual time the flow completed (zero until done).
func (f *Flow) Finished() time.Duration { return f.finished }

// Duration returns transfer time for completed flows.
func (f *Flow) Duration() time.Duration { return f.finished - f.started }

// DeliveredPayloadBytes returns the payload bytes (net of protocol
// overhead) delivered so far. For a finished flow this is the whole
// payload; for a failed one it is the resumable offset a restart can
// continue from.
func (f *Flow) DeliveredPayloadBytes() int64 {
	delivered := (f.wireBytes - f.RemainingBytes()) / (1 + f.opts.OverheadFraction)
	if delivered < 0 {
		return 0
	}
	return int64(delivered + 0.5)
}

// RemainingBytes returns wire bytes not yet delivered. Terminal flows
// answer from the value frozen at removal; active flows project the
// anchor to the current virtual time.
func (f *Flow) RemainingBytes() float64 {
	if f.state != FlowActive || f.net == nil {
		return f.remaining
	}
	return f.remainingAt(f.net.engine.Now())
}

// capBps returns the flow's intrinsic rate limit: the minimum of the
// window/RTT bound, the Mathis loss bound, the slow-start window, and any
// application cap. Link sharing is applied separately. The constant
// bounds are memoized at StartFlow; only the slow-start window is folded
// in live (a plain min over the same float set, so the memoized answer
// is bitwise-identical to recomputing every bound).
func (f *Flow) capBps() float64 {
	cap := f.staticCapBps
	if f.ramping && f.cwndBps < cap {
		cap = f.cwndBps
	}
	return cap
}

func (f *Flow) windowBps() float64 {
	if f.rtt <= 0 {
		return math.Inf(1)
	}
	return float64(f.opts.WindowBytes) * 8 / f.rtt.Seconds()
}

func (f *Flow) mathisBps() float64 {
	if f.loss <= 0 || f.rtt <= 0 {
		return math.Inf(1)
	}
	return MSS * 8 / f.rtt.Seconds() * mathisC / math.Sqrt(f.loss)
}

// halfEdge is one core-to-core edge of the routing graph: the receiving
// node's core index, the link's dense index, and the link's delay inline.
type halfEdge struct {
	to    int32
	link  int32
	delay time.Duration
}

// routeNode is one node's place in the contracted routing graph. A fringe
// node hangs below parent through the links up (node->parent) and down
// (parent->node), depth hops under attach, the core node its tree of
// fringe nodes hangs from. A core node has parent -1, attach itself,
// depth 0, and its index among the core nodes in core (-1 on the fringe).
type routeNode struct {
	parent, up, down int32
	attach, depth    int32
	core             int32
}

// noPrev marks a core node no link enters in a swept tree.
const noPrev = int32(-1)

// RouteStats counts routing work, exposed so benchmarks and the scale
// experiments can quantify the tree cache: PathBuilds is what a per-pair
// Dijkstra implementation would have run, TreeBuilds is what the core
// sweeps actually ran.
type RouteStats struct {
	// Queries is the total number of Route calls (cache hits included).
	Queries uint64
	// TreeBuilds is the number of Dijkstra sweeps of the core executed.
	TreeBuilds uint64
	// PathBuilds is the number of distinct (src,dst) paths materialized —
	// the Dijkstra count of the per-pair scheme this cache replaced.
	PathBuilds uint64
}

// Network is the simulated WAN.
type Network struct {
	engine *simulation.Engine
	links  map[linkKey]*Link
	// linkList holds every link at its dense index (Link.idx), the
	// backing order for the allocator's scratch arrays.
	linkList []*Link
	nextID   int64
	stats    RouteStats

	// nodeIdx and nodeNames map every node's name to its dense index and
	// back. The routing state is rebuilt by rebuildAdjacency on the first
	// Route after a topology change clears adjValid: every node's
	// routeNode, the core's out-edges (coreAdj[coreOff[c]:coreOff[c+1]]),
	// each core node's name rank among the core (the Dijkstra tie-break),
	// one predecessor-link slice per core index swept so far (nil until
	// then), and every materialized path, keyed by the packed dense
	// (src, dst) indices.
	nodeIdx   map[string]int
	nodeNames []string
	route     []routeNode
	coreOff   []int32
	coreAdj   []halfEdge
	coreRank  []int32
	trees     [][]int32
	paths     map[uint64][]*Link
	adjValid  bool

	// Reusable scratch buffers (see docs/PERFORMANCE.md): per-link water
	// level state indexed by Link.idx, the drained-flow batch of the
	// completion handler, and the Dijkstra working set (tentative
	// distances indexed by core index).
	remCap  []float64
	remCnt  []int
	doneBuf []*Flow
	dist    []time.Duration

	// Component partition (see partition.go): comps holds every record by
	// dense id (freed records stay pooled via compFree), linkComp maps a
	// link's dense index to its owning component (-1 when no active flow
	// crosses it), compHeap is the indexed min-heap over per-component
	// next completions, and dirtyComps is the queue processDirty drains.
	comps      []*component
	compFree   []*component
	liveComps  int
	linkComp   []int
	compHeap   []*component
	dirtyComps []*component
	pstats     ReallocStats
	// moved lists the flows whose caps moved since the last drain: the
	// flow a start moved, or the fill ticks of a ramp batch whose drain
	// was deferred.
	moved []*Flow
	// drainHook, when set, runs at the end of every drain: the cap-bound
	// oracle holds each drain, not only each event, to one water-fill.
	drainHook func()

	// Slow-start batches (see rampBatch): pooled records, the unused rest
	// of the slab new records are cut from, the batch the last
	// scheduleRamp opened or joined, and the engine's Scheduled count that
	// batch may still be joined at; netsim's own completion schedule
	// advances rampMark with it.
	rampFree []*rampBatch
	rampSlab []rampBatch
	rampOpen *rampBatch
	rampMark uint64

	// Partition scratch, reused across events: the water-fill's per-flow
	// floats (previous rates, projected remaining bytes), the caps bandFree
	// sorts, flow-list merge space, expired components popped by the
	// completion handler, and the union-find working set (parents indexed
	// by Link.idx, group roots and their components during a rebuild).
	fillScratch    []float64
	bandScratch    []float64
	flowScratch    []*Flow
	expiredScratch []*component
	ufParent       []int
	rootScratch    []int
	groupScratch   []*component

	nextEv simulation.Event
}

// completion is a Network's completion event (onCompletion).
type completion Network

func (c *completion) Fire(time.Duration) { (*Network)(c).onCompletion() }

// New creates an empty network driven by engine.
func New(engine *simulation.Engine) *Network {
	return &Network{
		engine:  engine,
		links:   make(map[linkKey]*Link),
		paths:   make(map[uint64][]*Link),
		nodeIdx: make(map[string]int),
	}
}

// AddNode registers a host or router by name.
func (n *Network) AddNode(name string) error {
	if name == "" {
		return errors.New("netsim: empty node name")
	}
	if _, dup := n.nodeIdx[name]; dup {
		return fmt.Errorf("netsim: duplicate node %q", name)
	}
	n.nodeIdx[name] = len(n.nodeNames)
	n.nodeNames = append(n.nodeNames, name)
	n.adjValid = false
	return nil
}

// AddLink adds a full-duplex link between a and b with identical
// characteristics in both directions.
func (n *Network) AddLink(a, b string, cfg LinkConfig) error {
	if err := n.addDirected(a, b, cfg); err != nil {
		return err
	}
	return n.addDirected(b, a, cfg)
}

func (n *Network) addDirected(from, to string, cfg LinkConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	fi, ok := n.nodeIdx[from]
	if !ok {
		return fmt.Errorf("netsim: unknown node %q", from)
	}
	ti, ok := n.nodeIdx[to]
	if !ok {
		return fmt.Errorf("netsim: unknown node %q", to)
	}
	if from == to {
		return fmt.Errorf("netsim: self-link on %q", from)
	}
	k := linkKey{from, to}
	if _, ok := n.links[k]; ok {
		return fmt.Errorf("netsim: duplicate link %s->%s", from, to)
	}
	l := &Link{from: from, to: to, fromIdx: int32(fi), toIdx: int32(ti), cfg: cfg, idx: len(n.linkList), net: n}
	n.links[k] = l
	n.linkList = append(n.linkList, l)
	n.remCap = append(n.remCap, 0)
	n.remCnt = append(n.remCnt, 0)
	n.linkComp = append(n.linkComp, -1)
	n.ufParent = append(n.ufParent, 0)
	// The routing state is rebuilt once, by the next Route, so an N-link
	// bulk build pays one flag store per link.
	n.adjValid = false
	return nil
}

// GetLink returns the directed link from->to.
func (n *Network) GetLink(from, to string) (*Link, error) {
	l, ok := n.links[linkKey{from, to}]
	if !ok {
		return nil, fmt.Errorf("netsim: no link %s->%s", from, to)
	}
	return l, nil
}

func (n *Network) setBackgroundLoad(l *Link, frac float64) {
	l.bgLoad = frac
	n.retight(l)
	n.pstats.CapacityEvents++
	// Only the component crossing this link (if any) needs new rates;
	// everyone else's allocation is untouched by construction.
	if cid := n.linkComp[l.idx]; cid >= 0 {
		n.markFill(n.comps[cid])
	}
	n.processDirty()
}

// SetLinkDown fails (or restores) the directed link from->to. Flows
// crossing a down link stall at zero rate until the link comes back —
// unless they opted into FlowOptions.FailOnDown, in which case they fail
// immediately (state FlowFailed, done callback invoked) so a failover
// layer can react. Routing is not recomputed (the testbed's routes are
// static, as the paper's were).
func (n *Network) SetLinkDown(from, to string, down bool) error {
	l, err := n.GetLink(from, to)
	if err != nil {
		return err
	}
	l.down = down
	n.retight(l)
	n.pstats.CapacityEvents++
	// Only the component crossing this link can see a rate change; flows
	// in every other component — other regions, in the scale worlds — are
	// untouched, and their ReallocStats stay flat.
	var comp *component
	if cid := n.linkComp[l.idx]; cid >= 0 {
		comp = n.comps[cid]
		n.markFill(comp)
	}
	if !down {
		n.processDirty()
		return nil
	}
	// Fail opted-in flows crossing the dead link. Mirrors onCompletion:
	// remove the whole batch, rebalance the survivors once, then invoke
	// callbacks (which may start replacement flows). A local batch slice
	// (not doneBuf) keeps this reentrancy-safe if a completion callback
	// ever downs a link; link failure is a cold path. Only the owning
	// component's flows can cross the link, so the scan is scoped to it.
	var failed []*Flow
	if comp != nil {
		for _, f := range comp.flows {
			if !f.opts.FailOnDown {
				continue
			}
			for _, pl := range f.path {
				if pl == l {
					failed = append(failed, f)
					break
				}
			}
		}
	}
	for _, f := range failed {
		n.removeFlow(f, FlowFailed)
	}
	n.processDirty()
	for _, f := range failed {
		if f.done != nil {
			f.done.FlowEnded(f)
		}
	}
	return nil
}

// ErrNoRoute is returned when no path exists between two nodes.
var ErrNoRoute = errors.New("netsim: no route")

// ErrPathDown is returned by StartFlow when FailOnDown is requested and a
// link on the route is already down — the flow would fail before moving a
// byte, so it is rejected up front.
var ErrPathDown = errors.New("netsim: path has a down link")

// rebuildAdjacency rebuilds the routing state from the link table, and
// drops every swept tree and memoized path. It first peels the
// single-homed fringe: a node whose only remaining links are one each way
// to the same neighbour u hangs below u, and peeling repeats, in queue
// order seeded by dense index, until no node qualifies. A one-way link
// keeps both its endpoints, and a tree component keeps one root. What is
// left is the core, and only the core's edges are kept for computeTree.
func (n *Network) rebuildAdjacency() {
	rn := make([]routeNode, len(n.nodeNames))
	deg := make([][2]int32, len(rn)) // remaining out- and in-links
	for v := range rn {
		rn[v] = routeNode{parent: -1, attach: int32(v), core: -1}
	}
	// While peeling, up and down hold the XOR of a node's remaining out-
	// and in-link indices: once one of each remains, they are those links.
	for _, l := range n.linkList {
		deg[l.fromIdx][0]++
		rn[l.fromIdx].up ^= int32(l.idx)
		deg[l.toIdx][1]++
		rn[l.toIdx].down ^= int32(l.idx)
	}
	one := [2]int32{1, 1}
	queue := make([]int32, 0, len(rn))
	for v := range rn {
		if deg[v] == one {
			queue = append(queue, int32(v))
		}
	}
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		if deg[v] != one {
			continue // its neighbour was peeled first: v is a tree's root
		}
		out, in := n.linkList[rn[v].up], n.linkList[rn[v].down]
		if u := out.toIdx; u == in.fromIdx {
			rn[v].parent, deg[v] = u, [2]int32{}
			deg[u][0]--
			deg[u][1]--
			rn[u].up ^= int32(in.idx)
			rn[u].down ^= int32(out.idx)
			if deg[u] == one {
				queue = append(queue, u)
			}
		}
	}
	// A node is peeled after all its children, so the queue read backwards
	// reaches every parent before its children.
	for i := len(queue) - 1; i >= 0; i-- {
		if v := queue[i]; rn[v].parent >= 0 {
			p := rn[rn[v].parent]
			rn[v].attach, rn[v].depth = p.attach, p.depth+1
		}
	}
	byName := queue[:0] // the queue's storage, reused for the core nodes
	for v := range rn {
		if rn[v].parent < 0 {
			rn[v].core = int32(len(byName))
			byName = append(byName, int32(v))
		}
	}
	nc := len(byName)
	off := make([]int32, nc+1)
	for _, l := range n.linkList {
		if c := rn[l.fromIdx].core; c >= 0 && rn[l.toIdx].core >= 0 {
			off[c+1]++
		}
	}
	for c := 1; c <= nc; c++ {
		off[c] += off[c-1]
	}
	adj := make([]halfEdge, off[nc])
	for _, l := range n.linkList {
		if c, d := rn[l.fromIdx].core, rn[l.toIdx].core; c >= 0 && d >= 0 {
			adj[off[c]] = halfEdge{to: d, link: int32(l.idx), delay: l.cfg.Delay}
			off[c]++
		}
	}
	copy(off[1:], off[:nc]) // the fill advanced each start to the next one's
	off[0] = 0
	rank := make([]int32, nc)
	slices.SortFunc(byName, func(a, b int32) int { return strings.Compare(n.nodeNames[a], n.nodeNames[b]) })
	for r, v := range byName {
		rank[rn[v].core] = int32(r)
	}
	n.route, n.coreOff, n.coreAdj, n.coreRank = rn, off, adj, rank
	n.trees, n.dist = make([][]int32, nc), make([]time.Duration, nc)
	clear(n.paths)
	n.adjValid = true
}

// Route returns the directed links on the lowest-latency path src->dst
// (Dijkstra on propagation delay, hop count as tie-break via tiny epsilon).
// A path is three parts: the up links from src to x, the core chain from x
// to y out of the tree swept from src's attachment, and the down links from
// y to dst. With different attachments x and y are those attachments; with
// the same one x = y is the two nodes' lowest common ancestor.
//
// The paths are link for link those of a per-pair Dijkstra over the whole
// graph (docs/PERFORMANCE.md, "Routes on the core"). A fringe node has one
// simple path to its attachment. It can offer a distance only to its
// parent, and that offer is strictly larger since hopPenalty > 0, so it
// never sets a core node's predecessor. And among core nodes the full
// sweep's pop key (D + d_core, name) orders them as (d_core, name) does,
// since D, src's distance to x, is the same for all of them.
func (n *Network) Route(src, dst string) ([]*Link, error) {
	si, ok := n.nodeIdx[src]
	if !ok {
		return nil, fmt.Errorf("netsim: unknown node %q", src)
	}
	di, ok := n.nodeIdx[dst]
	if !ok {
		return nil, fmt.Errorf("netsim: unknown node %q", dst)
	}
	if src == dst {
		return nil, fmt.Errorf("netsim: src == dst (%q)", src)
	}
	n.stats.Queries++
	if !n.adjValid {
		n.rebuildAdjacency()
	}
	key := uint64(si)<<32 | uint64(di)
	if p, ok := n.paths[key]; ok {
		return p, nil
	}
	rn := n.route
	x, y := rn[si].attach, rn[di].attach
	var prev []int32
	if x == y {
		a, b := int32(si), int32(di)
		for rn[a].depth > rn[b].depth {
			a = rn[a].parent
		}
		for rn[b].depth > rn[a].depth {
			b = rn[b].parent
		}
		for a != b {
			a, b = rn[a].parent, rn[b].parent
		}
		x, y = a, a
	} else {
		if prev = n.trees[rn[x].core]; prev == nil {
			prev = n.computeTree(rn[x].core)
			n.trees[rn[x].core] = prev
		}
		if prev[rn[y].core] == noPrev {
			return nil, fmt.Errorf("%w: %s->%s", ErrNoRoute, src, dst)
		}
	}
	// Count the hops, then fill one exact-size slice from both ends — one
	// allocation per distinct (src,dst), exactly what the per-pair scheme
	// paid.
	n.stats.PathBuilds++
	hops := rn[si].depth - rn[x].depth + rn[di].depth - rn[y].depth
	for at := y; at != x; at = n.linkList[prev[rn[at].core]].fromIdx {
		hops++
	}
	path := make([]*Link, hops)
	i := 0
	for v := int32(si); v != x; v = rn[v].parent {
		path[i] = n.linkList[rn[v].up]
		i++
	}
	i = len(path)
	for v := int32(di); v != y; v = rn[v].parent {
		i--
		path[i] = n.linkList[rn[v].down]
	}
	for at := y; at != x; at = path[i].fromIdx {
		i--
		path[i] = n.linkList[prev[rn[at].core]]
	}
	n.paths[key] = path
	return path, nil
}

// RouteStats returns cumulative routing-work counters.
func (n *Network) RouteStats() RouteStats { return n.stats }

// computeTree runs one full Dijkstra sweep of the core from core index src
// and returns, per core index, the dense index of the link entering it
// (noPrev for src and for unreachable nodes). Each step settles the
// unsettled node with the least (distance, node name) by a scan of the
// core, which holds a handful of nodes (the region hubs of a generated
// world, the switches of the paper testbed). Distances are exact (integer
// time.Duration sums) and relaxations improve strictly, so every
// predecessor chain is deterministic. A settled node's distance is
// overwritten with settled, which no relaxation improves on; the dist
// working array is reused Network scratch.
func (n *Network) computeTree(src int32) []int32 {
	n.stats.TreeBuilds++
	const hopPenalty = time.Microsecond
	dist, prev := n.dist, make([]int32, len(n.dist))
	for i := range dist {
		dist[i] = unreached
		prev[i] = noPrev
	}
	dist[src] = 0
	for u := src; u >= 0; {
		du := dist[u]
		dist[u] = settled
		for _, e := range n.coreAdj[n.coreOff[u]:n.coreOff[u+1]] {
			if nd := du + e.delay + hopPenalty; nd < dist[e.to] {
				dist[e.to] = nd
				prev[e.to] = e.link
			}
		}
		u = -1
		for v, d := range dist {
			if d != settled && d != unreached && (u < 0 || d < dist[u] ||
				d == dist[u] && n.coreRank[v] < n.coreRank[u]) {
				u = int32(v)
			}
		}
	}
	return prev
}

// unreached marks a core node the sweep has not relaxed yet, settled one
// it has finished.
const (
	unreached = time.Duration(math.MaxInt64)
	settled   = time.Duration(-1)
)

// PathRTT returns the round-trip time between two nodes (sum of one-way
// delays both directions; assumes the reverse path mirrors the forward one).
func (n *Network) PathRTT(src, dst string) (time.Duration, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return 0, err
	}
	var oneWay time.Duration
	for _, l := range path {
		oneWay += l.cfg.Delay
	}
	return 2 * oneWay, nil
}

// queueingDelay approximates the extra per-link delay a packet sees when
// the link runs hot: an M/M/1-flavoured u/(1-u) growth on top of the
// propagation delay, capped at 10x so a saturated link degrades rather
// than diverges. This is what a ping (and hence the NWS latency sensor)
// experiences under load.
func (l *Link) queueingDelay() time.Duration {
	u := l.Utilization()
	if u <= 0 {
		return 0
	}
	if u > 0.99 {
		u = 0.99
	}
	factor := 0.5 * u / (1 - u)
	if factor > 10 {
		factor = 10
	}
	return time.Duration(float64(l.cfg.Delay) * factor)
}

// PathRTTLoaded returns the round-trip time including current queueing
// delay on every link of the (forward) path, both directions.
func (n *Network) PathRTTLoaded(src, dst string) (time.Duration, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return 0, err
	}
	var oneWay time.Duration
	for _, l := range path {
		oneWay += l.cfg.Delay + l.queueingDelay()
	}
	return 2 * oneWay, nil
}

// PathLossRate returns the end-to-end loss probability of the path.
func (n *Network) PathLossRate(src, dst string) (float64, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return 0, err
	}
	keep := 1.0
	for _, l := range path {
		keep *= 1 - l.cfg.LossRate
	}
	return 1 - keep, nil
}

// BottleneckBps returns the raw capacity of the narrowest link on the path.
func (n *Network) BottleneckBps(src, dst string) (float64, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return 0, err
	}
	min := math.Inf(1)
	for _, l := range path {
		if l.cfg.CapacityBps < min {
			min = l.cfg.CapacityBps
		}
	}
	return min, nil
}

// AvailableBps returns the current unallocated capacity of the path's
// tightest link: effective capacity minus rate already granted to flows.
// This is what an NWS bandwidth sensor estimates with a probe.
func (n *Network) AvailableBps(src, dst string) (float64, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return 0, err
	}
	min := math.Inf(1)
	for _, l := range path {
		avail := l.EffectiveCapacity() - l.UsedBps()
		if avail < 0 {
			avail = 0
		}
		if avail < min {
			min = avail
		}
	}
	return min, nil
}

// StartFlow begins a simulated TCP transfer of bytes payload bytes from src
// to dst. done, if non-nil, receives the flow's end on the engine
// goroutine. The returned flow is live; its fields update as the
// simulation advances.
func (n *Network) StartFlow(src, dst string, bytes int64, opts FlowOptions, done FlowHandler) (*Flow, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("netsim: flow size must be positive, got %d", bytes)
	}
	if opts.WindowBytes < 0 || opts.RateCapBps < 0 || opts.OverheadFraction < 0 {
		return nil, errors.New("netsim: negative flow option")
	}
	if opts.WindowBytes == 0 {
		opts.WindowBytes = DefaultWindowBytes
	}
	path, err := n.Route(src, dst)
	if err != nil {
		return nil, err
	}
	if opts.FailOnDown {
		for _, l := range path {
			if l.down {
				return nil, fmt.Errorf("%w: %s->%s via %s->%s", ErrPathDown, src, dst, l.from, l.to)
			}
		}
	}
	// Loss and RTT are derived from the resolved path in a single
	// traversal; the per-metric lookups (PathLossRate, PathRTT) cannot
	// fail once Route has succeeded, and reusing the path makes that
	// structurally evident instead of discarding their errors.
	keep := 1.0
	var oneWay time.Duration
	for _, l := range path {
		keep *= 1 - l.cfg.LossRate
		oneWay += l.cfg.Delay
	}
	f := &Flow{
		id:        n.nextID,
		src:       src,
		dst:       dst,
		path:      path,
		net:       n,
		wireBytes: float64(bytes) * (1 + opts.OverheadFraction),
		opts:      opts,
		state:     FlowActive,
		rtt:       2 * oneWay,
		loss:      1 - keep,
		started:   n.engine.Now(),
		done:      done,
	}
	f.remaining = f.wireBytes
	f.settledAt = f.started
	f.completionAt = noCompletion
	f.staticCapBps = f.windowBps()
	if m := f.mathisBps(); m < f.staticCapBps {
		f.staticCapBps = m
	}
	if f.opts.RateCapBps > 0 && f.opts.RateCapBps < f.staticCapBps {
		f.staticCapBps = f.opts.RateCapBps
	}
	n.nextID++
	// A link the flow makes crossed wakes its background walk before the
	// ramp below opens a batch, which later flows of this instant join.
	for _, l := range path {
		if l.nflows == 0 && l.walk != nil {
			l.walk.Wake()
		}
		l.nflows++
	}
	// Slow start: rate begins at initialCwnd segments per RTT and doubles
	// each RTT until it reaches the flow's static cap; a first window
	// already there never ticks.
	if f.rtt > 0 {
		f.cwndBps = initialCwnd * MSS * 8 / f.rtt.Seconds()
		if f.cwndBps < f.staticCapBps {
			f.ramping = true
			n.scheduleRamp(f)
		}
	}
	// Join the partition (merging every component the path touches) and
	// re-allocate just the resulting component.
	n.attachFlow(f)
	n.capMoved(f, 0)
	n.pstats.Starts++
	n.processDirty()
	return f, nil
}

// CancelFlow aborts an active flow.
func (n *Network) CancelFlow(f *Flow) error {
	if f == nil {
		return errors.New("netsim: nil flow")
	}
	if f.state != FlowActive {
		return fmt.Errorf("netsim: flow %d is %v, not active", f.id, f.state)
	}
	n.removeFlow(f, FlowCanceled)
	n.pstats.Completions++
	n.processDirty()
	return nil
}

// Flows returns the in-progress flows in start (id) order: the flows of
// every live component, which between them hold exactly the active flows.
// The slice is the caller's; the flows are live.
func (n *Network) Flows() []*Flow {
	var out []*Flow
	for _, c := range n.comps {
		if !c.gone {
			out = append(out, c.flows...)
		}
	}
	slices.SortFunc(out, func(a, b *Flow) int { return cmp.Compare(a.id, b.id) })
	return out
}

// rampBatch is one engine event that ticks the slow start of every flow
// whose window doubles at instant at. The streams of one transfer start back
// to back on one path, so their ticks fall on the same instants, and as
// per-flow events they would fire back to back; a batch fires them as one
// event in the same order (docs/PERFORMANCE.md, "One slow-start event per
// instant"). Records are pooled and each is its own event's receiver, so a
// tick allocates nothing; a cold record is cut from a slab, with room for
// the flows of a four-stream transfer inline.
type rampBatch struct {
	net    *Network
	at     time.Duration
	flows  []*Flow // in tick order, which is id order; nil where a flow left
	live   int
	ev     simulation.Event
	inline [4]*Flow
}

// rampSlabLen is the number of records a cold Network cuts at a time.
const rampSlabLen = 16

// scheduleRamp books f's next slow-start tick one RTT from now. It joins the
// batch the previous scheduleRamp opened when the instant is the same and
// nothing was scheduled on the engine since, bar netsim's own completion
// event, which every drain cancels before it can fire: the per-flow event
// would then have fired right after the batch's, with nothing between them.
// Otherwise it opens a new batch.
func (n *Network) scheduleRamp(f *Flow) {
	at := n.engine.Now() + f.rtt
	if b := n.rampOpen; b != nil && b.at == at && n.engine.Scheduled() == n.rampMark {
		b.flows = append(b.flows, f)
		b.live++
		f.ramp = b
		return
	}
	b := n.newRampBatch()
	ev, err := n.engine.ScheduleHandler(at, b)
	if err != nil {
		// Invariant: now+rtt fits the virtual clock. Ignoring a failure
		// would freeze the flow's slow start forever.
		panic(fmt.Sprintf("netsim: flow %d slow-start schedule failed: %v", f.id, err))
	}
	b.at, b.ev, b.live = at, ev, 1
	b.flows = append(b.flows, f)
	f.ramp = b
	n.rampOpen, n.rampMark = b, n.engine.Scheduled()
}

func (n *Network) newRampBatch() *rampBatch {
	if k := len(n.rampFree); k > 0 {
		b := n.rampFree[k-1]
		n.rampFree[k-1] = nil
		n.rampFree = n.rampFree[:k-1]
		return b
	}
	if len(n.rampSlab) == 0 {
		n.rampSlab = make([]rampBatch, rampSlabLen)
	}
	b := &n.rampSlab[0]
	n.rampSlab = n.rampSlab[1:]
	b.net, b.flows = n, b.inline[:0]
	return b
}

// freeRampBatch recycles a batch that fired or emptied.
func (n *Network) freeRampBatch(b *rampBatch) {
	clear(b.flows)
	b.flows, b.live = b.flows[:0], 0
	if n.rampOpen == b {
		n.rampOpen = nil
	}
	n.rampFree = append(n.rampFree, b)
}

// leaveRamp takes f out of its batch; an emptied batch's event is canceled.
func (n *Network) leaveRamp(f *Flow) {
	b := f.ramp
	if b == nil {
		return
	}
	f.ramp = nil
	for i, g := range b.flows {
		if g == f {
			b.flows[i] = nil
			break
		}
	}
	if b.live--; b.live == 0 {
		n.engine.Cancel(b.ev)
		n.freeRampBatch(b)
	}
}

// Fire ticks every flow of the batch in order and drains once at the end.
// Every tick moves its flow's cap, so the drain always finds work.
func (b *rampBatch) Fire(time.Duration) {
	n := b.net
	for _, f := range b.flows {
		if f != nil {
			f.ramp = nil
			n.rampTick(f)
		}
	}
	n.processDirty()
	n.freeRampBatch(b)
}

// rampTick is one flow's slow-start step: double the congestion window,
// stop ramping once it reaches the static cap, and book the move for the
// caller's drain. A flow ramps only while its window is below that cap, so
// its cap is the window and every tick moves it.
func (n *Network) rampTick(f *Flow) {
	oldCap := f.cwndBps
	f.cwndBps *= 2
	if f.cwndBps >= f.staticCapBps {
		f.ramping = false
	} else {
		n.scheduleRamp(f)
	}
	n.capMoved(f, oldCap)
	n.pstats.Ramps++
}

// onCompletion fires when the earliest-cached completion arrives; the
// Network is the event's receiver (completion), so rescheduling allocates
// nothing. Every component whose cached minimum has expired is popped
// from the completion heap; its drained flows (ties complete together,
// across components) are removed in ascending id order, sub-byte residues
// left by the truncating duration conversion are re-anchored, and the
// dirty drain re-water-fills exactly the components that lost a flow.
func (n *Network) onCompletion() {
	now := n.engine.Now()
	expired := n.expiredScratch[:0]
	for len(n.compHeap) > 0 && n.compHeap[0].minAt <= now {
		c := n.compHeap[0]
		n.compHeapRemove(c)
		expired = append(expired, c)
	}
	done := n.doneBuf[:0]
	for _, c := range expired {
		for _, f := range c.flows {
			if f.completionAt > now {
				continue
			}
			f.remaining = f.remainingAt(now)
			f.settledAt = now
			if f.remaining <= 0.5 {
				// Drained (sub-byte residues are float rounding, not real
				// payload). Insert keeping the batch id-sorted: completions
				// across components run in flow-id order, whichever
				// component drained first.
				done = append(done, f)
				for j := len(done) - 1; j > 0 && done[j-1].id > done[j].id; j-- {
					done[j-1], done[j] = done[j], done[j-1]
				}
			} else {
				// A whole byte or more left: the truncating conversion in
				// setCompletionAt fired the event a hair early. Re-anchor;
				// the refreshed completion lands at least 1ns out.
				f.setCompletionAt(now)
			}
		}
	}
	for _, f := range done {
		n.removeFlow(f, FlowDone)
	}
	// Components that only had residues (nothing removed, so not dirty)
	// re-enter the heap with their refreshed minima; dirty ones are
	// re-keyed by the drain below.
	for _, c := range expired {
		if c.gone || c.dirty {
			continue
		}
		n.updateCompMin(c)
	}
	for i := range expired {
		expired[i] = nil
	}
	n.expiredScratch = expired[:0]
	n.pstats.Completions++
	n.processDirty()
	for _, f := range done {
		if f.done != nil {
			f.done.FlowEnded(f)
		}
	}
	for i := range done {
		done[i] = nil
	}
	n.doneBuf = done[:0]
}

func (n *Network) removeFlow(f *Flow, final FlowState) {
	now := n.engine.Now()
	// Freeze progress before the rate is cleared: terminal flows answer
	// RemainingBytes/DeliveredPayloadBytes from the stored value.
	f.remaining = f.remainingAt(now)
	f.settledAt = now
	n.capChanged(f, f.capBps(), 0)
	for _, l := range f.path {
		l.nflows--
		if l.nflows == 0 {
			// The link leaves the partition; nothing will water-fill it
			// again until a flow returns, so zero its allocation — and the
			// rounding its demand has gathered — exactly.
			l.usedBps, l.demand = 0, 0
			l.walk.Sleep()
			n.retight(l)
		}
	}
	n.leaveRamp(f)
	f.state = final
	f.finished = now
	f.rateBps = 0
	f.completionAt = noCompletion
	n.detachFlow(f)
}
