package simxfer

import (
	"math"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/simulation"
)

const mb = 1_000_000

func newBed(t *testing.T) (*simulation.Engine, *cluster.Testbed, *Transferrer) {
	t.Helper()
	eng := simulation.NewEngine()
	tb, err := cluster.NewPaperTestbed(eng)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(tb)
	if err != nil {
		t.Fatal(err)
	}
	return eng, tb, tr
}

// start submits a plain single-source request.
func start(tr *Transferrer, src, dst string, bytes int64, o Options, done func(Result)) error {
	return tr.Submit(Request{
		Sources: []string{src}, Dst: dst, Bytes: bytes, Options: o, Done: done,
	})
}

// run starts a transfer and drives the engine to completion.
func run(t *testing.T, eng *simulation.Engine, tr *Transferrer, src, dst string, bytes int64, o Options) Result {
	t.Helper()
	var res Result
	got := false
	if err := start(tr, src, dst, bytes, o, func(r Result) { res = r; got = true }); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("transfer never completed")
	}
	return res
}

func TestValidation(t *testing.T) {
	eng, _, tr := newBed(t)
	_ = eng
	if _, err := New(nil); err == nil {
		t.Fatal("nil testbed should be rejected")
	}
	cb := func(Result) {}
	if err := start(tr, "alpha1", "hit0", 0, Options{Protocol: ProtoFTP}, cb); err == nil {
		t.Fatal("zero bytes should be rejected")
	}
	if err := start(tr, "alpha1", "alpha1", 1, Options{Protocol: ProtoFTP}, cb); err == nil {
		t.Fatal("same endpoints should be rejected")
	}
	if err := start(tr, "ghost", "hit0", 1, Options{Protocol: ProtoFTP}, cb); err == nil {
		t.Fatal("unknown src should be rejected")
	}
	if err := start(tr, "alpha1", "ghost", 1, Options{Protocol: ProtoFTP}, cb); err == nil {
		t.Fatal("unknown dst should be rejected")
	}
	if err := start(tr, "alpha1", "hit0", 1, Options{Streams: -1}, cb); err == nil {
		t.Fatal("negative streams should be rejected")
	}
	if err := start(tr, "alpha1", "hit0", 1, Options{Protocol: ProtoFTP, Streams: 2}, cb); err == nil {
		t.Fatal("parallel FTP should be rejected")
	}
	if err := start(tr, "alpha1", "hit0", 1, Options{Protocol: ProtoGridFTPStream, Stripes: 2}, cb); err == nil {
		t.Fatal("striped stream mode should be rejected")
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoFTP.String() != "ftp" || ProtoGridFTPStream.String() != "gridftp-stream" ||
		ProtoGridFTPModeE.String() != "gridftp-modeE" || Protocol(9).String() == "" {
		t.Fatal("protocol strings wrong")
	}
}

func TestTransferScalesWithSize(t *testing.T) {
	var prev time.Duration
	for _, mbs := range []int64{256, 512, 1024, 2048} {
		eng, _, tr := newBed(t)
		res := run(t, eng, tr, "alpha1", "gridhit3", mbs*mb, Options{Protocol: ProtoFTP})
		if res.Duration() <= prev {
			t.Fatalf("duration %v for %d MB not greater than %v", res.Duration(), mbs, prev)
		}
		prev = res.Duration()
	}
}

func TestGridFTPSetupOverheadVsFTP(t *testing.T) {
	// Same path, same single stream: GridFTP (stream mode) pays the GSI
	// handshake, so it is slightly slower — and only slightly (Fig. 3).
	engF, _, trF := newBed(t)
	ftpRes := run(t, engF, trF, "alpha1", "gridhit3", 1024*mb, Options{Protocol: ProtoFTP})
	engG, _, trG := newBed(t)
	gridRes := run(t, engG, trG, "alpha1", "gridhit3", 1024*mb, GridFTPOptions(0))
	if gridRes.Duration() <= ftpRes.Duration() {
		t.Fatalf("GridFTP (%v) should pay setup overhead vs FTP (%v)",
			gridRes.Duration(), ftpRes.Duration())
	}
	// The overhead is protocol setup, not data path: well under 5%.
	if diff := gridRes.Duration() - ftpRes.Duration(); diff > ftpRes.Duration()/20 {
		t.Fatalf("setup overhead %v too large vs %v", diff, ftpRes.Duration())
	}
}

func TestParallelStreamsHelpOnLossyPath(t *testing.T) {
	// THU -> Li-Zen: the paper's Fig. 4 path. More streams, faster.
	durations := map[int]time.Duration{}
	for _, streams := range []int{1, 2, 4, 8, 16} {
		eng, _, tr := newBed(t)
		res := run(t, eng, tr, "alpha2", "lz04", 1024*mb, GridFTPOptions(streams))
		durations[streams] = res.Duration()
		if res.Channels != streams {
			t.Fatalf("channels = %d, want %d", res.Channels, streams)
		}
	}
	if !(durations[1] > durations[2] && durations[2] > durations[4]) {
		t.Fatalf("expected monotone speedup: %v", durations)
	}
	gainEarly := durations[1] - durations[4]
	gainLate := durations[4] - durations[16]
	if gainLate > gainEarly/2 {
		t.Fatalf("expected diminishing returns: %v", durations)
	}
}

func TestModeEOneStreamSlightlySlowerThanStream(t *testing.T) {
	// MODE E with one channel pays block-header overhead vs stream mode:
	// "parallel data transfer with one TCP stream is not the same as no
	// parallel data transfer at all" (§4.2).
	engS, _, trS := newBed(t)
	stream := run(t, engS, trS, "alpha2", "lz04", 512*mb, GridFTPOptions(0))
	engE, _, trE := newBed(t)
	modeE := run(t, engE, trE, "alpha2", "lz04", 512*mb, GridFTPOptions(1))
	if modeE.Duration() <= stream.Duration() {
		t.Fatalf("MODE E single stream (%v) should be slightly slower than stream mode (%v)",
			modeE.Duration(), stream.Duration())
	}
	if diff := modeE.Duration() - stream.Duration(); diff > stream.Duration()/50 {
		t.Fatalf("MODE E framing overhead too large: %v vs %v", modeE.Duration(), stream.Duration())
	}
}

func TestBusySourceSlowsTransfer(t *testing.T) {
	engA, tbA, trA := newBed(t)
	idle := run(t, engA, trA, "alpha4", "alpha1", 512*mb, GridFTPOptions(4))
	engB, tbB, trB := newBed(t)
	h, err := tbB.Host("alpha4")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetBaseIOLoad(0.8); err != nil {
		t.Fatal(err)
	}
	if err := h.SetBaseCPULoad(0.9); err != nil {
		t.Fatal(err)
	}
	busy := run(t, engB, trB, "alpha4", "alpha1", 512*mb, GridFTPOptions(4))
	if busy.Duration() <= idle.Duration() {
		t.Fatalf("busy source (%v) should be slower than idle (%v)", busy.Duration(), idle.Duration())
	}
	_ = tbA
}

func TestStripedBeatsParallelWhenDiskBound(t *testing.T) {
	// Saturate I/O on the source host: a single host cannot feed the LAN,
	// but striping across site peers aggregates disk bandwidth — the
	// motivation for the paper's future-work striped transfer.
	mkBusy := func() (*simulation.Engine, *Transferrer) {
		eng, tb, tr := newBed(t)
		h, err := tb.Host("alpha4")
		if err != nil {
			t.Fatal(err)
		}
		if err := h.SetBaseIOLoad(0.9); err != nil {
			t.Fatal(err)
		}
		return eng, tr
	}
	engP, trP := mkBusy()
	parallel := run(t, engP, trP, "alpha4", "alpha1", 1024*mb, GridFTPOptions(4))
	engS, trS := mkBusy()
	striped := run(t, engS, trS, "alpha4", "alpha1", 1024*mb, Options{
		Protocol: ProtoGridFTPModeE, Streams: 2, Stripes: 2,
	})
	if striped.Duration() >= parallel.Duration() {
		t.Fatalf("striped (%v) should beat single-host parallel (%v) when disk-bound",
			striped.Duration(), parallel.Duration())
	}
}

func TestStripesClampedToSiteSize(t *testing.T) {
	eng, _, tr := newBed(t)
	res := run(t, eng, tr, "alpha1", "hit0", 64*mb, Options{
		Protocol: ProtoGridFTPModeE, Streams: 1, Stripes: 100,
	})
	if res.Channels != 4 { // THU has 4 hosts
		t.Fatalf("channels = %d, want 4 (site size clamp)", res.Channels)
	}
}

func TestTunedTCPBufferHelpsOnFatPath(t *testing.T) {
	engA, _, trA := newBed(t)
	small := run(t, engA, trA, "alpha1", "gridhit3", 512*mb, Options{Protocol: ProtoGridFTPStream})
	engB, _, trB := newBed(t)
	big := run(t, engB, trB, "alpha1", "gridhit3", 512*mb, Options{
		Protocol: ProtoGridFTPStream, TCPBufferBytes: 4 << 20,
	})
	if big.Duration() >= small.Duration() {
		t.Fatalf("tuned buffer (%v) should beat 64 KiB default (%v)", big.Duration(), small.Duration())
	}
}

// TestThroughputAccessor: the goodput a Result's Bytes and Duration give
// stays within the 100 Mb/s backbone.
func TestThroughputAccessor(t *testing.T) {
	eng, _, tr := newBed(t)
	res := run(t, eng, tr, "alpha1", "gridhit3", 1024*mb, GridFTPOptions(4))
	tp := float64(res.Bytes) * 8 / res.Duration().Seconds() / 1e6
	if tp <= 0 || tp > 100 {
		t.Fatalf("throughput = %v Mb/s, expected within the 100 Mb/s backbone", tp)
	}
}
