package simxfer

import (
	"math"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/simulation"
)

// startMulti submits a co-allocated request.
func startMulti(tr *Transferrer, sources []string, dst string, bytes int64, o Options, scheme Scheme, done func(Result)) error {
	return tr.Submit(Request{
		Sources: sources,
		Dst:     dst,
		Bytes:   bytes,
		Options: o,
		Scheme:  scheme,
		Done:    done,
	})
}

func runMulti(t *testing.T, eng *simulation.Engine, tr *Transferrer, sources []string, dst string, bytes int64, o Options, scheme Scheme) Result {
	t.Helper()
	var res Result
	got := false
	if err := startMulti(tr, sources, dst, bytes, o, scheme, func(r Result) {
		res = r
		got = true
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("multi-source transfer never completed")
	}
	if res.Err != nil {
		t.Fatalf("multi-source transfer failed: %v", res.Err)
	}
	return res
}

func TestMultiSourceValidation(t *testing.T) {
	_, _, tr := newBed(t)
	cb := func(Result) {}
	if err := startMulti(tr, nil, "alpha1", 1, GridFTPOptions(0), SchemeDynamic, cb); err == nil {
		t.Fatal("no sources should be rejected")
	}
	if err := startMulti(tr, []string{"hit0"}, "alpha1", 0, GridFTPOptions(0), SchemeDynamic, cb); err == nil {
		t.Fatal("zero bytes should be rejected")
	}
	if err := startMulti(tr, []string{"alpha1"}, "alpha1", 1, GridFTPOptions(0), SchemeDynamic, cb); err == nil {
		t.Fatal("source == dst should be rejected")
	}
	if err := startMulti(tr, []string{"hit0", "hit0"}, "alpha1", 1, GridFTPOptions(0), SchemeDynamic, cb); err == nil {
		t.Fatal("duplicate sources should be rejected")
	}
	if err := startMulti(tr, []string{"ghost"}, "alpha1", 1, GridFTPOptions(0), SchemeDynamic, cb); err == nil {
		t.Fatal("unknown source should be rejected")
	}
	if err := startMulti(tr, []string{"hit0"}, "ghost", 1, GridFTPOptions(0), SchemeDynamic, cb); err == nil {
		t.Fatal("unknown dst should be rejected")
	}
	if err := startMulti(tr, []string{"hit0"}, "alpha1", 1, Options{Protocol: ProtoGridFTPModeE, Streams: 2, Stripes: 2}, SchemeDynamic, cb); err == nil {
		t.Fatal("striped co-allocation should be rejected")
	}
	if err := startMulti(tr, []string{"hit0"}, "alpha1", 1, GridFTPOptions(0), Scheme(9), cb); err == nil {
		t.Fatal("unknown scheme should be rejected")
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeStatic.String() != "static-split" || SchemeDynamic.String() != "dynamic-chunks" || Scheme(7).String() == "" {
		t.Fatal("scheme strings wrong")
	}
}

func TestDynamicCoallocationBeatsBestSingle(t *testing.T) {
	// Sources on two distinct WAN paths into THU: hit0 (100 Mb/s backbone,
	// window-limited to ~51 Mb/s) and lz02 (30 Mb/s, Mathis-limited to
	// ~14 Mb/s). Co-allocating aggregates both paths.
	engS, _, trS := newBed(t)
	single := run(t, engS, trS, "hit0", "alpha1", 1024*mb, GridFTPOptions(0))
	engM, _, trM := newBed(t)
	multi := runMulti(t, engM, trM, []string{"hit0", "lz02"}, "alpha1", 1024*mb, GridFTPOptions(0), SchemeDynamic)
	if multi.Duration() >= single.Duration() {
		t.Fatalf("co-allocation (%v) should beat the best single replica (%v)",
			multi.Duration(), single.Duration())
	}
	// Both sources must contribute, the faster one more.
	if multi.BytesBySource["hit0"] == 0 || multi.BytesBySource["lz02"] == 0 {
		t.Fatalf("contributions = %v", multi.BytesBySource)
	}
	if multi.BytesBySource["hit0"] <= multi.BytesBySource["lz02"] {
		t.Fatalf("fast source should carry more: %v", multi.BytesBySource)
	}
	if multi.BytesBySource["hit0"]+multi.BytesBySource["lz02"] != 1024*mb {
		t.Fatalf("bytes unaccounted: %v", multi.BytesBySource)
	}
}

func TestStaticSplitHurtsWithAsymmetricSources(t *testing.T) {
	// The classic co-allocation result: a static equal split makes the
	// slow server the critical path — slower than skipping it entirely —
	// while dynamic chunking is the best of the three.
	engS, _, trS := newBed(t)
	single := run(t, engS, trS, "hit0", "alpha1", 1024*mb, GridFTPOptions(0))
	engSt, _, trSt := newBed(t)
	static := runMulti(t, engSt, trSt, []string{"hit0", "lz02"}, "alpha1", 1024*mb, GridFTPOptions(0), SchemeStatic)
	engDy, _, trDy := newBed(t)
	dynamic := runMulti(t, engDy, trDy, []string{"hit0", "lz02"}, "alpha1", 1024*mb, GridFTPOptions(0), SchemeDynamic)
	if static.Duration() <= single.Duration() {
		t.Fatalf("static split (%v) should lose to best-single (%v) when sources are asymmetric",
			static.Duration(), single.Duration())
	}
	if dynamic.Duration() >= static.Duration() {
		t.Fatalf("dynamic (%v) should beat static (%v)", dynamic.Duration(), static.Duration())
	}
}

func TestDynamicSymmetricSourcesShareEvenly(t *testing.T) {
	// alpha4 and alpha3 both sit on the THU LAN: near-identical paths to
	// gridhit3 — chunks should split roughly evenly.
	eng, _, tr := newBed(t)
	res := runMulti(t, eng, tr, []string{"alpha4", "alpha3"}, "gridhit3", 512*mb, GridFTPOptions(0), SchemeDynamic)
	a, b := res.BytesBySource["alpha4"], res.BytesBySource["alpha3"]
	if a+b != 512*mb {
		t.Fatalf("bytes = %v", res.BytesBySource)
	}
	ratio := float64(a) / float64(b)
	if ratio < 0.6 || ratio > 1.7 {
		t.Fatalf("symmetric sources should share ~evenly: %v", res.BytesBySource)
	}
}

func TestMultiSourceSingleDegeneratesToStart(t *testing.T) {
	// One source behaves like a plain transfer (same order of magnitude;
	// chunking adds no setup per chunk).
	engA, _, trA := newBed(t)
	plain := run(t, engA, trA, "hit0", "alpha1", 256*mb, GridFTPOptions(0))
	engB, _, trB := newBed(t)
	multi := runMulti(t, engB, trB, []string{"hit0"}, "alpha1", 256*mb, GridFTPOptions(0), SchemeDynamic)
	lo, hi := plain.Duration()*9/10, plain.Duration()*11/10
	if multi.Duration() < lo || multi.Duration() > hi {
		t.Fatalf("single-source dynamic (%v) should track plain transfer (%v)",
			multi.Duration(), plain.Duration())
	}
}

func TestMultiSourceParallelStreamsCompose(t *testing.T) {
	eng, _, tr := newBed(t)
	res := runMulti(t, eng, tr, []string{"hit0", "lz02"}, "alpha1", 512*mb,
		GridFTPOptions(4), SchemeDynamic)
	if res.Duration() <= 0 {
		t.Fatal("no duration")
	}
	total := int64(0)
	for _, b := range res.BytesBySource {
		total += b
	}
	if total != 512*mb {
		t.Fatalf("bytes = %v", res.BytesBySource)
	}
	_ = time.Second
}

func TestRecommendStreams(t *testing.T) {
	eng, tb, _ := newBed(t)
	_ = eng
	// Lossy narrow path: a single 64 KiB-window stream is Mathis-bound at
	// ~14 Mb/s; the 30 Mb/s link needs 2-3 streams.
	n, err := RecommendStreams(tb.Network(), "alpha2", "lz04", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 || n > 4 {
		t.Fatalf("LiZen recommendation = %d, want 2-4", n)
	}
	// LAN path: one stream already fills it.
	n, err = RecommendStreams(tb.Network(), "alpha4", "alpha1", 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("LAN recommendation = %d, want 1", n)
	}
	// Clamping.
	n, err = RecommendStreams(tb.Network(), "alpha2", "lz04", 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("clamped recommendation = %d, want 2", n)
	}
	// Errors.
	if _, err := RecommendStreams(nil, "a", "b", 0, 0); err == nil {
		t.Fatal("nil network should be rejected")
	}
	if _, err := RecommendStreams(tb.Network(), "alpha1", "ghost", 0, 0); err == nil {
		t.Fatal("unroutable pair should be rejected")
	}
}
