// Package datagrid holds the repository-level benchmark harness: one
// benchmark per paper figure (Fig. 3, Fig. 4) by point, one sub-benchmark
// per `gridbench -all` entry (BenchmarkSuiteEntries), the sweep
// benchmarks, and micro-benchmarks for the performance-critical
// substrates. Run with
//
//	go test -bench=. -benchmem
//
// Experiment benchmarks re-run the full simulated experiment per
// iteration and report its results (transfer seconds, regret, MSE) as
// custom metrics, so `go test -bench` regenerates the paper's numbers.
package datagrid

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/experiments"
	"github.com/hpclab/datagrid/internal/gridftp"
	"github.com/hpclab/datagrid/internal/netsim"
	"github.com/hpclab/datagrid/internal/nws"
	"github.com/hpclab/datagrid/internal/replica"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/simxfer"
	"github.com/hpclab/datagrid/internal/workload"
)

const benchSeed = 42

// BenchmarkFigure3FTPvsGridFTP regenerates Fig. 3: FTP vs GridFTP transfer
// time over the THU -> HIT path for each paper file size.
func BenchmarkFigure3FTPvsGridFTP(b *testing.B) {
	for _, proto := range []simxfer.Protocol{simxfer.ProtoFTP, simxfer.ProtoGridFTPStream} {
		for _, sizeMB := range workload.PaperFileSizesMB {
			b.Run(fmt.Sprintf("%v/%dMB", proto, sizeMB), func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					env, err := experiments.NewEnv(benchSeed, false)
					if err != nil {
						b.Fatal(err)
					}
					res, err := env.MeasureAt(experiments.Warmup, "alpha1", "gridhit3",
						sizeMB*workload.MB, simxfer.Options{Protocol: proto})
					if err != nil {
						b.Fatal(err)
					}
					last = res.Duration().Seconds()
				}
				b.ReportMetric(last, "xfer-sec")
			})
		}
	}
}

// BenchmarkFigure4ParallelStreams regenerates Fig. 4: GridFTP transfer
// time over the THU -> Li-Zen bottleneck by stream count.
func BenchmarkFigure4ParallelStreams(b *testing.B) {
	for _, streams := range workload.PaperStreamCounts {
		for _, sizeMB := range workload.PaperFileSizesMB {
			b.Run(fmt.Sprintf("streams=%d/%dMB", streams, sizeMB), func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					env, err := experiments.NewEnv(benchSeed, false)
					if err != nil {
						b.Fatal(err)
					}
					res, err := env.MeasureAt(experiments.Warmup, "alpha2", "lz04",
						sizeMB*workload.MB, simxfer.GridFTPOptions(streams))
					if err != nil {
						b.Fatal(err)
					}
					last = res.Duration().Seconds()
				}
				b.ReportMetric(last, "xfer-sec")
			})
		}
	}
}

// BenchmarkSuiteEntries runs each `gridbench -all` entry as a
// sub-benchmark and reports every metric the suite names for it
// (whitespace in a name becomes "_"), so `go test -bench` regenerates the
// paper's numbers and the ablation and extension results.
func BenchmarkSuiteEntries(b *testing.B) {
	for _, e := range experiments.Suite() {
		switch e.Group {
		case experiments.GroupFaults, experiments.GroupScale, experiments.GroupTraffic:
			continue
		}
		b.Run(e.Name, func(b *testing.B) {
			var ms []experiments.Metric
			for i := 0; i < b.N; i++ {
				var err error
				if _, ms, err = e.Run(benchSeed, 0); err != nil {
					b.Fatal(err)
				}
			}
			for _, m := range ms {
				b.ReportMetric(m.Value, strings.Join(strings.Fields(m.Name), "_"))
			}
		})
	}
}

// BenchmarkGridbenchAll runs the entire evaluation suite — the workload
// behind `gridbench -all` — through the deterministic worker pool, once
// sequentially and once at the machine's full width. The parallel over
// sequential wall-time ratio is the speedup the runner delivers here;
// output equality between the two is enforced separately by
// cmd/gridbench's TestParallelOutputByteIdentical and the CI diff gate.
func BenchmarkGridbenchAll(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{fmt.Sprintf("parallel-%d", runtime.NumCPU()), runtime.NumCPU()},
	} {
		// The -all selection: every group except the opt-in fault sweep,
		// which BenchmarkFaultsSweep records separately.
		var entries []experiments.SuiteEntry
		for _, e := range experiments.Suite() {
			if e.Group != experiments.GroupFaults {
				entries = append(entries, e)
			}
		}
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := experiments.RunEntries(entries, benchSeed, bc.workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != len(entries) {
					b.Fatalf("got %d entry results, want %d", len(results), len(entries))
				}
			}
		})
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkModeEFraming measures MODE E block encode+decode throughput.
func BenchmarkModeEFraming(b *testing.B) {
	payload := make([]byte, 64*1024)
	rand.New(rand.NewSource(1)).Read(payload)
	var buf bytes.Buffer
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := gridftp.WriteBlock(&buf, gridftp.Block{Offset: uint64(i), Payload: payload}); err != nil {
			b.Fatal(err)
		}
		if _, err := gridftp.ReadBlock(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridFTPLoopback measures a real 8 MiB MODE E download over
// loopback sockets, per parallelism level.
func BenchmarkGridFTPLoopback(b *testing.B) {
	store := gridftp.NewMemStore()
	payload := make([]byte, 8<<20)
	rand.New(rand.NewSource(2)).Read(payload)
	if err := store.Put("/bench.bin", payload); err != nil {
		b.Fatal(err)
	}
	srv, err := gridftp.NewServer(gridftp.ServerConfig{Store: store})
	if err != nil {
		b.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			c, err := gridftp.Dial(addr, gridftp.ClientConfig{Parallelism: p, Timeout: 30 * time.Second})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if err := c.Login("u", "p"); err != nil {
				b.Fatal(err)
			}
			if err := c.Setup(); err != nil {
				b.Fatal(err)
			}
			if p == 1 {
				if err := c.UseModeE(); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := c.Get("/bench.bin")
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != len(payload) {
					b.Fatal("short read")
				}
			}
		})
	}
}

// BenchmarkNetsimFlowEvents measures the flow-level simulator's event
// throughput with many concurrent flows on one bottleneck.
func BenchmarkNetsimFlowEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := simulation.NewEngine()
		net := netsim.New(eng)
		if err := net.AddNode("a"); err != nil {
			b.Fatal(err)
		}
		if err := net.AddNode("z"); err != nil {
			b.Fatal(err)
		}
		if err := net.AddLink("a", "z", netsim.LinkConfig{CapacityBps: 1e9, Delay: 5 * time.Millisecond, LossRate: 0.001}); err != nil {
			b.Fatal(err)
		}
		for f := 0; f < 64; f++ {
			if _, err := net.StartFlow("a", "z", 10_000_000, netsim.FlowOptions{WindowBytes: 1 << 20}, nil); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.RunUntil(math.MaxInt64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimStressLargeGrid stresses the simulator core at a scale
// well beyond the paper's 4-site testbed: 56 sites behind an 8-router
// backbone ring, with 320 concurrent flows contending on the shared
// backbone links. This is the workload shape of the ExtensionScale
// "larger number of sites" study, and it tracks how the incremental
// max-min allocator behaves when rounds × flows × path-length is large.
func BenchmarkNetsimStressLargeGrid(b *testing.B) {
	const (
		routers  = 8
		sitesPer = 7 // 8*7 = 56 sites
		flows    = 320
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := simulation.NewEngine()
		net := netsim.New(eng)
		var sites []string
		for r := 0; r < routers; r++ {
			router := fmt.Sprintf("r%d", r)
			if err := net.AddNode(router); err != nil {
				b.Fatal(err)
			}
		}
		for r := 0; r < routers; r++ {
			router := fmt.Sprintf("r%d", r)
			// Backbone ring: shared bottlenecks for cross-router flows.
			next := fmt.Sprintf("r%d", (r+1)%routers)
			if err := net.AddLink(router, next, netsim.LinkConfig{
				CapacityBps: 1e9, Delay: 10 * time.Millisecond, LossRate: 1e-4,
			}); err != nil {
				b.Fatal(err)
			}
			for s := 0; s < sitesPer; s++ {
				site := fmt.Sprintf("s%d-%d", r, s)
				if err := net.AddNode(site); err != nil {
					b.Fatal(err)
				}
				if err := net.AddLink(site, router, netsim.LinkConfig{
					CapacityBps: 155e6, Delay: 2 * time.Millisecond, LossRate: 1e-5,
				}); err != nil {
					b.Fatal(err)
				}
				sites = append(sites, site)
			}
		}
		rng := rand.New(rand.NewSource(11))
		completed := 0
		for f := 0; f < flows; f++ {
			src := sites[rng.Intn(len(sites))]
			dst := sites[rng.Intn(len(sites))]
			for dst == src {
				dst = sites[rng.Intn(len(sites))]
			}
			if _, err := net.StartFlow(src, dst, 5_000_000,
				netsim.FlowOptions{WindowBytes: 1 << 20},
				netsim.FlowFunc(func(*netsim.Flow) { completed++ })); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.RunUntil(math.MaxInt64); err != nil {
			b.Fatal(err)
		}
		if completed != flows {
			b.Fatalf("completed %d of %d flows", completed, flows)
		}
	}
}

// BenchmarkForecasterBank measures the NWS expert bank's update+forecast
// cost per measurement.
func BenchmarkForecasterBank(b *testing.B) {
	bank, err := nws.NewBank(nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Update(50 + rng.NormFloat64()*5)
		if _, err := bank.Forecast(); err != nil && i > 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineChurn measures the event queue under a monitoring-sized
// load: 1 000 events stay pending while each iteration schedules one more
// and either fires the earliest or, one time in ten, cancels what it just
// scheduled.
func BenchmarkEngineChurn(b *testing.B) {
	eng := simulation.NewEngine()
	rng := rand.New(rand.NewSource(5))
	fn := func(time.Duration) {}
	delay := func() time.Duration { return time.Duration(1+rng.Intn(1000)) * time.Millisecond }
	for i := 0; i < 1000; i++ {
		if _, err := eng.After(delay(), fn); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := eng.After(delay(), fn)
		if err != nil {
			b.Fatal(err)
		}
		if i%10 == 0 {
			eng.Cancel(ev)
			continue
		}
		eng.Step()
	}
	if eng.Pending() != 1000 {
		b.Fatalf("pending = %d, want 1000", eng.Pending())
	}
}

// BenchmarkSelectionRank measures one full catalog -> information-server ->
// score -> rank decision on the monitored testbed.
func BenchmarkSelectionRank(b *testing.B) {
	env, err := experiments.NewEnv(benchSeed, true)
	if err != nil {
		b.Fatal(err)
	}
	cat := replica.NewCatalog()
	if err := cat.CreateLogical(replica.LogicalFile{Name: "f", SizeBytes: 1 << 30}); err != nil {
		b.Fatal(err)
	}
	for _, h := range []string{"alpha4", "hit0", "lz02"} {
		if err := cat.Register("f", replica.Location{Host: h, Path: "/f"}); err != nil {
			b.Fatal(err)
		}
	}
	sel, err := core.NewSelectionServer(cat, env.Deploy.Server.Publisher(), core.PaperWeights, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := env.Engine.RunUntil(experiments.Warmup); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.Rank("f", env.Engine.Now()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemStoreWriteAt measures the virtual filesystem's random write
// path (what MODE E receivers hammer).
func BenchmarkMemStoreWriteAt(b *testing.B) {
	st := gridftp.NewMemStore()
	f, err := st.Create("/bench")
	if err != nil {
		b.Fatal(err)
	}
	block := make([]byte, 64*1024)
	const fileSize = 64 << 20
	b.SetBytes(int64(len(block)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i*len(block)) % fileSize
		if _, err := f.WriteAt(block, off); err != nil {
			b.Fatal(err)
		}
	}
	_ = io.Discard
}
