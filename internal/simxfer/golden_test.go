package simxfer

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/submit_golden.txt from this tree")

// hostEvent downs (or revives) a host at a virtual time.
type hostEvent struct {
	host string
	at   time.Duration
	down bool
}

// goldenCase is one Submit whose whole event stream is pinned.
type goldenCase struct {
	name   string
	req    Request
	faults []hostEvent
}

// oddMB is a payload no channel count divides, so the remainder rule
// (channel 0 takes it) shows in every split.
const oddMB = 256*mb + 7

func goldenCases() []goldenCase {
	modeE := func(streams, stripes int) Options {
		return Options{Protocol: ProtoGridFTPModeE, Streams: streams, Stripes: stripes}
	}
	flap := []hostEvent{{"hit0", 10 * time.Second, true}, {"hit0", 20 * time.Second, false}}
	crash := []hostEvent{{"hit0", 10 * time.Second, true}}
	retry := &FailoverPolicy{Mode: RetrySame, MaxAttempts: 6, InitialBackoff: 4 * time.Second, MaxBackoff: 16 * time.Second}
	return []goldenCase{
		{name: "plain ftp", req: Request{Sources: []string{"alpha1"}, Dst: "gridhit3", Bytes: oddMB, Options: Options{Protocol: ProtoFTP}}},
		{name: "gridftp stream mode", req: Request{Sources: []string{"hit0"}, Dst: "alpha1", Bytes: oddMB, Options: GridFTPOptions(0)}},
		{name: "mode E x4", req: Request{Sources: []string{"alpha2"}, Dst: "lz04", Bytes: oddMB, Options: GridFTPOptions(4)}},
		{name: "mode E x4 tiny", req: Request{Sources: []string{"alpha2"}, Dst: "lz04", Bytes: 3, Options: GridFTPOptions(4)}},
		{name: "2 stripes x 2 streams", req: Request{Sources: []string{"alpha4"}, Dst: "gridhit3", Bytes: oddMB, Options: modeE(2, 2)}},
		{name: "stripes skip the destination", req: Request{Sources: []string{"alpha4"}, Dst: "alpha1", Bytes: oddMB, Options: modeE(1, 3)}},
		{name: "static 2-source", req: Request{Sources: []string{"hit0", "lz02"}, Dst: "alpha1", Bytes: oddMB, Options: GridFTPOptions(0)}},
		{name: "static 2-source x3 streams", req: Request{Sources: []string{"hit0", "lz02"}, Dst: "alpha1", Bytes: oddMB, Options: GridFTPOptions(3)}},
		{name: "dynamic 2-source", req: Request{Sources: []string{"hit0", "lz02"}, Dst: "alpha1", Bytes: oddMB, Options: GridFTPOptions(0), Scheme: SchemeDynamic}},
		{name: "dynamic 2-source 33 chunks", req: Request{Sources: []string{"hit0", "lz02"}, Dst: "alpha1", Bytes: 32*ChunkBytes + 7, Options: GridFTPOptions(0), Scheme: SchemeDynamic}},
		{name: "dynamic 2-source x3 streams", req: Request{Sources: []string{"hit0", "lz02"}, Dst: "alpha1", Bytes: 64*mb + 7, Options: GridFTPOptions(3), Scheme: SchemeDynamic}},
		{name: "dynamic 1-source", req: Request{Sources: []string{"hit0"}, Dst: "alpha1", Bytes: 64*mb + 7, Options: GridFTPOptions(0), Scheme: SchemeDynamic}},
		{name: "dynamic more sources than chunks", req: Request{Sources: []string{"hit0", "lz02", "gridhit1"}, Dst: "alpha1", Bytes: 5 * mb, Options: GridFTPOptions(0), Scheme: SchemeDynamic}},
		{name: "failover healthy", req: Request{Sources: []string{"hit0", "lz02"}, Dst: "alpha1", Bytes: oddMB, Options: GridFTPOptions(4),
			Failover: &FailoverPolicy{Mode: FailoverReselect}}},
		{name: "failover no-retry crash", faults: crash, req: Request{Sources: []string{"hit0"}, Dst: "alpha1", Bytes: oddMB, Options: GridFTPOptions(0),
			Failover: &FailoverPolicy{Mode: NoRetry}}},
		{name: "failover retry-same mode E resumes", faults: flap, req: Request{Sources: []string{"hit0"}, Dst: "alpha1", Bytes: oddMB, Options: GridFTPOptions(4),
			Failover: retry}},
		{name: "failover retry-same stream mode restarts", faults: flap, req: Request{Sources: []string{"hit0"}, Dst: "alpha1", Bytes: oddMB, Options: Options{Protocol: ProtoFTP},
			Failover: retry}},
		{name: "failover reselect crash", faults: crash, req: Request{Sources: []string{"hit0", "lz02"}, Dst: "alpha1", Bytes: oddMB, Options: GridFTPOptions(4),
			Failover: &FailoverPolicy{Mode: FailoverReselect}}},
		{name: "failover reselect ranked, every source burned", req: Request{Sources: []string{"hit0", "lz02", "gridhit1"}, Dst: "alpha1", Bytes: oddMB, Options: GridFTPOptions(2),
			Failover: &FailoverPolicy{Mode: FailoverReselect, MaxAttempts: 5, InitialBackoff: time.Second,
				Rank: func(_ time.Duration, alive []string) []string {
					out := append([]string(nil), alive...)
					sort.Sort(sort.Reverse(sort.StringSlice(out)))
					return out
				}}},
			faults: []hostEvent{{"lz02", 5 * time.Second, true}, {"hit0", 0, true}, {"hit0", 15 * time.Second, false}, {"gridhit1", 0, true}}},
		{name: "failover attempt timeout", req: Request{Sources: []string{"lz02"}, Dst: "alpha1", Bytes: oddMB, Options: Options{Protocol: ProtoFTP},
			Failover: &FailoverPolicy{Mode: RetrySame, MaxAttempts: 2, AttemptTimeout: 20 * time.Second}}},
		{name: "failover timeout inside setup", req: Request{Sources: []string{"lz02", "hit0"}, Dst: "alpha1", Bytes: oddMB, Options: GridFTPOptions(4),
			Failover: &FailoverPolicy{Mode: FailoverReselect, MaxAttempts: 2, AttemptTimeout: 150 * time.Millisecond}}},
	}
}

// record runs one case on a fresh paper testbed, stepping the engine one
// event at a time so every flow is seen in the event that started it.
func (c goldenCase) record(t *testing.T, w *bytes.Buffer) {
	t.Helper()
	eng, tb, tr := newBed(t)
	for _, f := range c.faults {
		crashAt(t, eng, tb, f.host, f.at, f.down)
	}
	var res Result
	dones := 0
	req := c.req
	req.Done = func(r Result) { res = r; dones++ }
	if err := tr.Submit(req); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	fmt.Fprintf(w, "== %s\n", c.name)
	lastID := int64(-1)
	for {
		for _, f := range tb.Network().Flows() {
			if f.ID() > lastID {
				lastID = f.ID()
				fmt.Fprintf(w, "flow %d: %s->%s wire=%v rate=%v started=%v\n",
					f.ID(), f.Src(), f.Dst(), f.RemainingBytes(), f.RateBps(), f.Started())
			}
		}
		if !eng.Step() {
			break
		}
	}
	if dones != 1 {
		t.Fatalf("%s: Done fired %d times", c.name, dones)
	}
	fmt.Fprintf(w, "result: src=%q dst=%q bytes=%d options=%+v channels=%d started=%v finished=%v sources=%q scheme=%v by-source=%v err=%v\n",
		res.Src, res.Dst, res.Bytes, res.Options, res.Channels, res.Started, res.Finished,
		res.Sources, res.Scheme, res.BytesBySource, res.Err)
	if res.Attempts == nil {
		fmt.Fprintln(w, "attempts: none")
	}
	for i, a := range res.Attempts {
		fmt.Fprintf(w, "attempt %d: source=%s started=%v ended=%v delivered=%d outcome=%v err=%v\n",
			i, a.Source, a.Started, a.Ended, a.BytesDelivered, a.Outcome, a.Err)
	}
	fmt.Fprintf(w, "fired=%d now=%v\n", eng.Fired(), eng.Now())
}

// TestSubmitGolden pins the whole event stream of every transfer mode:
// the Result (attempt log included), the engine's fired-event count and
// clock, and each flow's endpoints, wire bytes, first rate and start
// time, in start order. The file was generated before the one-session
// rewrite; a refactor of this package must leave it byte-identical
// (regenerate with -update only for a reviewed behaviour change).
func TestSubmitGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range goldenCases() {
		c.record(t, &got)
	}
	path := filepath.Join("testdata", "submit_golden.txt")
	if *updateGolden {
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
				t.Fatalf("event stream diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("event stream length differs from %s: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// failoverSubmitAllocBudget is the exact allocation count for one warm
// failover Submit-to-Done cycle (4 streams, two candidates, healthy path):
// the transfer and its four Flows. The four streams ramp in shared
// slow-start batches, and the session is the receiver of its setup event,
// its attempt timeout and its flows' ends, so no callback allocates.
const failoverSubmitAllocBudget = 5

func TestFailoverSubmitAllocs(t *testing.T) {
	eng, _, tr := newBed(t)
	pol := &FailoverPolicy{Mode: FailoverReselect, MaxAttempts: 3, AttemptTimeout: 4 * time.Minute}
	req := Request{
		Sources: []string{"hit0", "lz02"}, Dst: "alpha1", Bytes: 8 * mb,
		Options: GridFTPOptions(4), Failover: pol,
		Done: func(Result) {},
	}
	cycle := func() {
		if err := tr.Submit(req); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunUntil(math.MaxInt64); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the route cache and the engine's event pool
	if got := testing.AllocsPerRun(20, cycle); got != failoverSubmitAllocBudget {
		t.Fatalf("failover Submit-to-Done allocates %v times, want %d", got, failoverSubmitAllocBudget)
	}
}
