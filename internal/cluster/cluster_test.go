package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/simulation"
)

func twoSiteConfig() Config {
	lan := netsim.LinkConfig{CapacityBps: gbps, Delay: 50 * time.Microsecond}
	return Config{
		Sites: []SiteConfig{
			{Name: "s1", LAN: lan, Hosts: []HostConfig{
				{Name: "h1", Disk: DiskSpec{ReadBps: 400 * mbps, WriteBps: 300 * mbps}},
				{Name: "h2", Disk: DiskSpec{ReadBps: 100 * mbps, WriteBps: 80 * mbps}},
			}},
			{Name: "s2", LAN: lan, Hosts: []HostConfig{
				{Name: "h3", Disk: DiskSpec{ReadBps: 400 * mbps, WriteBps: 300 * mbps}},
			}},
		},
		WAN: []WANLink{{From: "s1", To: "s2", Link: netsim.LinkConfig{CapacityBps: 100 * mbps, Delay: 2 * time.Millisecond}}},
	}
}

func newTestbed(t *testing.T) (*simulation.Engine, *Testbed) {
	t.Helper()
	eng := simulation.NewEngine()
	tb, err := New(eng, twoSiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng, tb
}

func TestTopologyBuilt(t *testing.T) {
	_, tb := newTestbed(t)
	if got := tb.Hosts(); len(got) != 3 {
		t.Fatalf("Hosts = %v", got)
	}
	if got := tb.Sites(); len(got) != 2 || got[0] != "s1" || got[1] != "s2" {
		t.Fatalf("Sites = %v", got)
	}
	hs, err := tb.SiteHosts("s1")
	if err != nil || len(hs) != 2 || hs[0].Name() != "h1" {
		t.Fatalf("SiteHosts = %v, %v", hs, err)
	}
	if _, err := tb.SiteHosts("nope"); err == nil {
		t.Fatal("unknown site should error")
	}
	// Cross-site routing must work through switches.
	rtt, err := tb.Network().PathRTT("h1", "h3")
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * (50*time.Microsecond + 2*time.Millisecond + 50*time.Microsecond)
	if rtt != want {
		t.Fatalf("h1->h3 RTT = %v, want %v", rtt, want)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := simulation.NewEngine()
	lan := netsim.LinkConfig{CapacityBps: gbps}
	disk := DiskSpec{ReadBps: 1, WriteBps: 1}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no sites", Config{}},
		{"empty site name", Config{Sites: []SiteConfig{{LAN: lan, Hosts: []HostConfig{{Name: "h", Disk: disk}}}}}},
		{"no hosts", Config{Sites: []SiteConfig{{Name: "s", LAN: lan}}}},
		{"empty host name", Config{Sites: []SiteConfig{{Name: "s", LAN: lan, Hosts: []HostConfig{{Disk: disk}}}}}},
		{"zero disk", Config{Sites: []SiteConfig{{Name: "s", LAN: lan, Hosts: []HostConfig{{Name: "h"}}}}}},
		{"dup site", Config{Sites: []SiteConfig{
			{Name: "s", LAN: lan, Hosts: []HostConfig{{Name: "h1", Disk: disk}}},
			{Name: "s", LAN: lan, Hosts: []HostConfig{{Name: "h2", Disk: disk}}}}}},
		{"dup host", Config{Sites: []SiteConfig{{Name: "s", LAN: lan, Hosts: []HostConfig{
			{Name: "h", Disk: disk}, {Name: "h", Disk: disk}}}}}},
		{"bad wan site", Config{
			Sites: []SiteConfig{{Name: "s", LAN: lan, Hosts: []HostConfig{{Name: "h", Disk: disk}}}},
			WAN:   []WANLink{{From: "s", To: "zzz", Link: netsim.LinkConfig{CapacityBps: 1}}}}},
	}
	for _, c := range cases {
		if _, err := New(eng, c.cfg); err == nil {
			t.Fatalf("config %q should be rejected", c.name)
		}
	}
}

func TestHostLoadAccessors(t *testing.T) {
	_, tb := newTestbed(t)
	h, err := tb.Host("h1")
	if err != nil {
		t.Fatal(err)
	}
	if h.CPUIdle() != 1 || h.IOIdle() != 1 {
		t.Fatal("fresh host should be fully idle")
	}
	if err := h.SetBaseCPULoad(0.4); err != nil {
		t.Fatal(err)
	}
	if err := h.SetBaseIOLoad(0.3); err != nil {
		t.Fatal(err)
	}
	if h.CPULoad() != 0.4 || h.IOLoad() != 0.3 {
		t.Fatalf("loads = %v, %v", h.CPULoad(), h.IOLoad())
	}
	if h.CPUIdle() != 0.6 {
		t.Fatalf("CPUIdle = %v", h.CPUIdle())
	}
	if got := h.EffectiveDiskReadBps(); got != 400*mbps*0.7 {
		t.Fatalf("EffectiveDiskReadBps = %v", got)
	}
	if got := h.EffectiveDiskWriteBps(); got != 300*mbps*0.7 {
		t.Fatalf("EffectiveDiskWriteBps = %v", got)
	}
	if err := h.SetBaseCPULoad(1.5); err == nil {
		t.Fatal("load > 1 should be rejected")
	}
	if err := h.SetBaseIOLoad(-0.1); err == nil {
		t.Fatal("negative load should be rejected")
	}
	if h.Name() != "h1" || h.Site() != "s1" {
		t.Fatal("host metadata accessors wrong")
	}
	if _, err := tb.Host("nope"); err == nil {
		t.Fatal("unknown host should error")
	}
}

func TestJobs(t *testing.T) {
	_, tb := newTestbed(t)
	h, _ := tb.Host("h1")
	j1, err := h.AddJob(0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := h.AddJob(0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if h.CPULoad() != 1 { // 1.2 saturates at 1
		t.Fatalf("CPULoad = %v, want saturation at 1", h.CPULoad())
	}
	if h.IOLoad() != 0.5 {
		t.Fatalf("IOLoad = %v", h.IOLoad())
	}
	j1.Release()
	if h.CPULoad() != 0.7 || h.IOLoad() != 0.3 {
		t.Fatalf("after release: %v, %v", h.CPULoad(), h.IOLoad())
	}
	j1.Release() // idempotent
	if h.CPULoad() != 0.7 {
		t.Fatal("double release changed load")
	}
	j2.Release()
	if h.CPULoad() != 0 || h.IOLoad() != 0 {
		t.Fatalf("after all released: %v, %v", h.CPULoad(), h.IOLoad())
	}
	if _, err := h.AddJob(-0.1, 0); err == nil {
		t.Fatal("negative job load should be rejected")
	}
	if _, err := h.AddJob(0, 1.1); err == nil {
		t.Fatal("job load > 1 should be rejected")
	}
}

var walkCfg = LoadConfig{
	CPUMean: 0.4, CPUVolatility: 0.08,
	IOMean: 0.2, IOVolatility: 0.05,
	Reversion: 0.2, Period: time.Second,
}

func TestLoadProcess(t *testing.T) {
	eng, tb := newTestbed(t)
	if err := tb.StartLoad("h2", walkCfg, 7); err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 0 {
		t.Fatalf("a load walk scheduled %d events, want none", eng.Pending())
	}
	h, _ := tb.Host("h2")
	if h.CPULoad() != 0.4 || h.IOLoad() != 0.2 {
		t.Fatal("load walk should start at the mean")
	}
	moved := false
	prev := h.CPULoad()
	for i := 0; i < 50; i++ {
		if err := eng.RunUntil(time.Duration(i+1) * time.Second); err != nil {
			t.Fatal(err)
		}
		if h.CPULoad() < 0 || h.CPULoad() > 1 || h.IOLoad() < 0 || h.IOLoad() > 1 {
			t.Fatalf("load escaped [0,1]: cpu=%v io=%v", h.CPULoad(), h.IOLoad())
		}
		if h.CPULoad() != prev {
			moved = true
		}
		prev = h.CPULoad()
	}
	if !moved {
		t.Fatal("load never changed")
	}
}

// refLoad replays a host's load walk outside the engine: one step moves
// CPU, then I/O, each with its own draw from one RNG.
type refLoad struct {
	cfg     LoadConfig
	rng     *rand.Rand
	cpu, io float64
}

func newRefLoad(cfg LoadConfig, seed int64) *refLoad {
	return &refLoad{cfg: cfg, rng: rand.New(rand.NewSource(seed)), cpu: cfg.CPUMean, io: cfg.IOMean}
}

func (r *refLoad) step() {
	next := func(v, mean, vol float64) float64 {
		return clamp01(v + (r.cfg.Reversion*(mean-v) + r.rng.NormFloat64()*vol))
	}
	r.cpu = next(r.cpu, r.cfg.CPUMean, r.cfg.CPUVolatility)
	r.io = next(r.io, r.cfg.IOMean, r.cfg.IOVolatility)
}

// A read at a grid instant sees the step due there exactly when a ticker
// started with the walk would have stepped first: when the read was
// scheduled at most one period ahead (one period ahead only from a
// same-period chain younger than the walk), or runs outside any event. A
// read scheduled at 0 for the second step's instant sees one step, as a
// ticker's reader would; a ticker replaying the walk beside it is
// compared at reads below, at and above one period ahead.
func TestLoadWalkStepOrderMatchesTicker(t *testing.T) {
	eng, tb := newTestbed(t)
	if err := tb.StartLoad("h1", walkCfg, 11); err != nil {
		t.Fatal(err)
	}
	h, _ := tb.Host("h1")
	ref := newRefLoad(walkCfg, 11)
	if _, err := eng.NewTicker(walkCfg.Period, false, func(time.Duration) { ref.step() }); err != nil {
		t.Fatal(err)
	}
	reads := map[time.Duration]int{}
	read := func(lead time.Duration) {
		reads[lead]++
		if cpu, io := h.CPULoad(), h.IOLoad(); cpu != ref.cpu || io != ref.io {
			t.Errorf("read at %v scheduled %v ahead = (%v, %v), the ticker has (%v, %v)", eng.Now(), lead, cpu, io, ref.cpu, ref.io)
		}
	}
	p := walkCfg.Period
	if _, err := eng.NewTicker(p, false, func(time.Duration) { read(p) }); err != nil {
		t.Fatal(err)
	}
	for k := time.Duration(2); k <= 8; k++ {
		at := k * p
		for _, lead := range []time.Duration{p / 4, p / 2, 3 * p / 2, 2 * p} {
			if _, err := eng.Schedule(at-lead, func(time.Duration) {
				if _, err := eng.Schedule(at, func(time.Duration) { read(lead) }); err != nil {
					t.Error(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var early float64
	if _, err := eng.Schedule(2*p, func(time.Duration) { early = h.CPULoad() }); err != nil {
		t.Fatal(err)
	}
	for k := time.Duration(1); k <= 8; k++ {
		if err := eng.RunUntil(k * p); err != nil {
			t.Fatal(err)
		}
		read(0)
	}
	if len(reads) != 6 {
		t.Fatalf("reads by lead: %v", reads)
	}
	one := newRefLoad(walkCfg, 11)
	one.step()
	if early != one.cpu {
		t.Fatalf("read scheduled at 0 for 2 periods = %v, want one step (%v)", early, one.cpu)
	}
}

// How often a host's load is read does not move it: the walk applies
// the same draws in the same order however its steps are batched.
func TestLoadWalkIndependentOfReadCadence(t *testing.T) {
	run := func(every time.Duration) map[string][2]float64 {
		eng := simulation.NewEngine()
		tb, err := NewPaperTestbed(eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := StartPaperDynamics(tb, 42); err != nil {
			t.Fatal(err)
		}
		if every > 0 {
			if _, err := eng.NewTicker(every, false, func(time.Duration) {
				for _, n := range tb.Hosts() {
					h, _ := tb.Host(n)
					h.CPULoad()
					h.IOLoad()
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.RunUntil(60 * time.Second); err != nil {
			t.Fatal(err)
		}
		out := make(map[string][2]float64)
		for _, n := range tb.Hosts() {
			h, _ := tb.Host(n)
			out[n] = [2]float64{h.CPULoad(), h.IOLoad()}
		}
		return out
	}
	often, once := run(100*time.Millisecond), run(0)
	for n, want := range once {
		got := often[n]
		if math.Float64bits(got[0]) != math.Float64bits(want[0]) || math.Float64bits(got[1]) != math.Float64bits(want[1]) {
			t.Fatalf("%s at 60s: read every 100ms = %v, read once = %v", n, got, want)
		}
	}
}

// Setting a walked host's base load applies the steps already due, then
// the written value holds until the next grid point, where the walk
// steps on from it.
func TestSetBaseLoadAppliesDueSteps(t *testing.T) {
	eng, tb := newTestbed(t)
	if err := tb.StartLoad("h1", walkCfg, 5); err != nil {
		t.Fatal(err)
	}
	h, _ := tb.Host("h1")
	if err := eng.RunUntil(2*walkCfg.Period + walkCfg.Period/2); err != nil {
		t.Fatal(err)
	}
	if err := h.SetBaseCPULoad(0.9); err != nil {
		t.Fatal(err)
	}
	ref := newRefLoad(walkCfg, 5)
	ref.step()
	ref.step()
	if h.IOLoad() != ref.io {
		t.Fatalf("I/O after the set = %v, want two steps applied (%v)", h.IOLoad(), ref.io)
	}
	if err := eng.RunUntil(3*walkCfg.Period - 1); err != nil {
		t.Fatal(err)
	}
	if h.CPULoad() != 0.9 {
		t.Fatalf("CPU before the next grid point = %v, want the written 0.9", h.CPULoad())
	}
	if err := eng.RunUntil(3 * walkCfg.Period); err != nil {
		t.Fatal(err)
	}
	ref.cpu = 0.9
	ref.step()
	if h.CPULoad() != ref.cpu || h.IOLoad() != ref.io {
		t.Fatalf("at the next grid point = (%v, %v), want one step from 0.9 (%v, %v)", h.CPULoad(), h.IOLoad(), ref.cpu, ref.io)
	}
}

// The paper testbed's dynamics fire nothing while no flow crosses a WAN
// link: host load walks and idle links' background walks schedule no
// event. With a 1 s ticker per WAN direction they fired 6 × 60 in a
// minute, and a 2 s ticker per host added 12 × 30 more.
func TestPaperDynamicsEvents(t *testing.T) {
	eng := simulation.NewEngine()
	tb, err := NewPaperTestbed(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := StartPaperDynamics(tb, 42); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, pending := eng.Fired(), eng.Pending(); got != 0 || pending != 0 {
		t.Fatalf("paper dynamics fired %d events in 60s with %d pending, want none", got, pending)
	}
}

func TestLoadConfigValidation(t *testing.T) {
	_, tb := newTestbed(t)
	bad := []LoadConfig{
		{CPUMean: -0.1, Reversion: 0.5, Period: time.Second},
		{CPUMean: 0.5, IOMean: 1.2, Reversion: 0.5, Period: time.Second},
		{CPUVolatility: -1, Reversion: 0.5, Period: time.Second},
		{Reversion: 0, Period: time.Second},
		{Reversion: 0.5, Period: 0},
	}
	for i, cfg := range bad {
		if err := tb.StartLoad("h1", cfg, 1); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}
	if err := tb.StartLoad("ghost", LoadConfig{Reversion: 0.5, Period: time.Second}, 1); err == nil {
		t.Fatal("unknown host should be rejected")
	}
}

func TestPaperTestbed(t *testing.T) {
	eng := simulation.NewEngine()
	tb, err := NewPaperTestbed(eng)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tb.Hosts()); got != 12 {
		t.Fatalf("paper testbed has %d hosts, want 12", got)
	}
	wantSites := []string{SiteHIT, SiteLiZen, SiteTHU}
	got := tb.Sites()
	for i := range wantSites {
		if got[i] != wantSites[i] {
			t.Fatalf("Sites = %v", got)
		}
	}
	for _, name := range []string{"alpha1", "alpha4", "lz02", "lz04", "hit0", "gridhit3"} {
		if _, err := tb.Host(name); err != nil {
			t.Fatalf("paper host %q missing: %v", name, err)
		}
	}
	// THU -> Li-Zen bottleneck is the 30 Mb/s WAN/site rate.
	bn, err := tb.Network().BottleneckBps("alpha2", "lz04")
	if err != nil || bn != 30*mbps {
		t.Fatalf("THU->LiZen bottleneck = %v, %v; want 30 Mb/s", bn, err)
	}
	// THU -> HIT bottleneck is the 100 Mb/s backbone.
	bn, err = tb.Network().BottleneckBps("alpha1", "gridhit3")
	if err != nil || bn != 100*mbps {
		t.Fatalf("THU->HIT bottleneck = %v, %v; want 100 Mb/s", bn, err)
	}
	// Paper hardware: each site's disks, the one host spec the model reads.
	for host, want := range map[string]DiskSpec{
		"alpha1": {ReadBps: 400 * mbps, WriteBps: 320 * mbps},
		"lz02":   {ReadBps: 160 * mbps, WriteBps: 120 * mbps},
		"hit0":   {ReadBps: 440 * mbps, WriteBps: 360 * mbps},
	} {
		h, _ := tb.Host(host)
		if h.cfg.Disk != want {
			t.Fatalf("%s disk = %+v, want %+v", host, h.cfg.Disk, want)
		}
	}
}

func TestPaperDynamics(t *testing.T) {
	eng := simulation.NewEngine()
	tb, err := NewPaperTestbed(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := StartPaperDynamics(tb, 99); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Loads must have been initialized and stay in range.
	busy := 0
	for _, name := range tb.Hosts() {
		h, _ := tb.Host(name)
		if h.CPULoad() < 0 || h.CPULoad() > 1 {
			t.Fatalf("host %s CPU load %v", name, h.CPULoad())
		}
		if h.CPULoad() > 0 {
			busy++
		}
	}
	if busy == 0 {
		t.Fatal("no host ever got load")
	}
	// WAN links must carry background traffic.
	l, err := tb.Network().GetLink(SwitchNode(SiteTHU), SwitchNode(SiteLiZen))
	if err != nil {
		t.Fatal(err)
	}
	if l.BackgroundLoad() <= 0 {
		t.Fatal("no background traffic on THU->LiZen")
	}
}

func TestDeterministicDynamics(t *testing.T) {
	run := func() float64 {
		eng := simulation.NewEngine()
		tb, err := NewPaperTestbed(eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := StartPaperDynamics(tb, 5); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunUntil(60 * time.Second); err != nil {
			t.Fatal(err)
		}
		h, _ := tb.Host("alpha1")
		return h.CPULoad()
	}
	if run() != run() {
		t.Fatal("same seed produced different trajectories")
	}
}

// Property: aggregate job loads always stay within [0,1] no matter the
// add/release sequence.
func TestPropertyJobLoadBounds(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		eng := simulation.NewEngine()
		tb, err := New(eng, twoSiteConfig())
		if err != nil {
			return false
		}
		h, err := tb.Host("h1")
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		var jobs []*Job
		for i := 0; i < int(n%50); i++ {
			if rng.Intn(3) > 0 || len(jobs) == 0 {
				j, err := h.AddJob(rng.Float64(), rng.Float64())
				if err != nil {
					return false
				}
				jobs = append(jobs, j)
			} else {
				k := rng.Intn(len(jobs))
				jobs[k].Release()
				jobs = append(jobs[:k], jobs[k+1:]...)
			}
			if h.CPULoad() < 0 || h.CPULoad() > 1 || h.IOLoad() < 0 || h.IOLoad() > 1 {
				return false
			}
		}
		for _, j := range jobs {
			j.Release()
		}
		// Summation order may leave float residue; it must be negligible.
		return h.CPULoad() < 1e-9 && h.IOLoad() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSetHostDown(t *testing.T) {
	eng := simulation.NewEngine()
	tb, err := NewPaperTestbed(eng)
	if err != nil {
		t.Fatal(err)
	}
	down, err := tb.HostDown("lz02")
	if err != nil || down {
		t.Fatalf("fresh host down = %v, %v", down, err)
	}
	if err := tb.SetHostDown("lz02", true); err != nil {
		t.Fatal(err)
	}
	down, err = tb.HostDown("lz02")
	if err != nil || !down {
		t.Fatalf("HostDown after failure = %v, %v", down, err)
	}
	// Path capacity through the dead host collapses.
	avail, err := tb.Network().AvailableBps("lz02", "alpha1")
	if err != nil || avail != 0 {
		t.Fatalf("avail from dead host = %v, %v", avail, err)
	}
	// Site peers are unaffected.
	avail, err = tb.Network().AvailableBps("lz03", "alpha1")
	if err != nil || avail <= 0 {
		t.Fatalf("peer avail = %v, %v", avail, err)
	}
	if err := tb.SetHostDown("lz02", false); err != nil {
		t.Fatal(err)
	}
	avail, err = tb.Network().AvailableBps("lz02", "alpha1")
	if err != nil || avail <= 0 {
		t.Fatalf("avail after recovery = %v, %v", avail, err)
	}
	if err := tb.SetHostDown("ghost", true); err == nil {
		t.Fatal("unknown host should error")
	}
	if _, err := tb.HostDown("ghost"); err == nil {
		t.Fatal("unknown host should error")
	}
}
