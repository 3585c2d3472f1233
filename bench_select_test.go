package datagrid

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/experiments"
	"github.com/hpclab/datagrid/internal/gridstate"
	"github.com/hpclab/datagrid/internal/info"
	"github.com/hpclab/datagrid/internal/replica"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/topo"
)

// selectionBenchLogicals is the batch size: the number of logical files a
// selection burst scores (a job submission staging its input set).
const selectionBenchLogicals = 64

// selectionBenchEnv is the monitored Table 1 world plus a catalog of
// selectionBenchLogicals files, each replicated on alpha4, hit0 and lz02.
type selectionBenchEnv struct {
	now      time.Duration
	catalog  *replica.Catalog
	infoSrv  *info.Server
	sel      *core.SelectionServer
	logicals []string
}

func newSelectionBenchEnv(b *testing.B) *selectionBenchEnv {
	b.Helper()
	env, err := experiments.NewEnv(benchSeed, true)
	if err != nil {
		b.Fatal(err)
	}
	if err := env.Engine.RunUntil(experiments.Warmup); err != nil {
		b.Fatal(err)
	}
	catalog := replica.NewCatalog()
	logicals := make([]string, 0, selectionBenchLogicals)
	for i := 0; i < selectionBenchLogicals; i++ {
		name := fmt.Sprintf("file-%03d", i)
		if err := catalog.CreateLogical(replica.LogicalFile{Name: name, SizeBytes: 256 << 20}); err != nil {
			b.Fatal(err)
		}
		for _, h := range []string{"alpha4", "hit0", "lz02"} {
			if err := catalog.Register(name, replica.Location{Host: h, Path: "/data/" + name}); err != nil {
				b.Fatal(err)
			}
		}
		logicals = append(logicals, name)
	}
	infoSrv := env.Deploy.Server
	sel, err := core.NewSelectionServer(catalog, infoSrv.Publisher(), core.PaperWeights, nil)
	if err != nil {
		b.Fatal(err)
	}
	return &selectionBenchEnv{
		now: env.Engine.Now(), catalog: catalog, infoSrv: infoSrv,
		sel: sel, logicals: logicals,
	}
}

// rankPull is the pre-snapshot selection read path: one information-server
// pull per candidate per request. The info server queries live,
// single-goroutine substrates, so concurrent selectors must serialize
// every pull behind mu — which is exactly the scaling wall the snapshot
// plane removes.
func rankPull(e *selectionBenchEnv, mu *sync.Mutex, logical string) ([]core.Candidate, error) {
	locs, err := e.catalog.Locations(logical)
	if err != nil {
		return nil, err
	}
	cands := make([]core.Candidate, 0, len(locs))
	reps := make([]gridstate.HostPerf, 0, len(locs)) // never grows: the candidates point into it
	for _, loc := range locs {
		mu.Lock()
		rep, err := e.infoSrv.BuildHostPerf(loc.Host, e.now)
		mu.Unlock()
		if err != nil {
			if errors.Is(err, info.ErrNoData) {
				continue
			}
			return nil, err
		}
		reps = append(reps, rep)
		cands = append(cands, core.Candidate{Location: loc, Report: &reps[len(reps)-1], Score: core.Score(&rep, core.PaperWeights)})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("no usable replica for %s", logical)
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].Location.String() < cands[j].Location.String()
	})
	return cands, nil
}

// BenchmarkSelectionThroughput measures a burst of replica selections —
// ranking selectionBenchLogicals logical files across W concurrent
// selectors — on the two read paths: "pull" (per-candidate information
// server queries, serialized because the live substrates are
// single-goroutine) versus "snapshot" (one pinned gridstate epoch,
// lock-free batch Rank). The per-op workload is identical; the snapshot
// path wins on per-request work (id-table reads against an immutable epoch
// versus MDS searches, forecast evaluations and staleness checks), not on
// core count. Recorded to BENCH_select.json via `make bench-select`.
func BenchmarkSelectionThroughput(b *testing.B) {
	for _, workers := range []int{1, 8} {
		for _, mode := range []string{"pull", "snapshot"} {
			b.Run(fmt.Sprintf("%s/selectors=%d", mode, workers), func(b *testing.B) {
				e := newSelectionBenchEnv(b)
				// Shards: each worker ranks an interleaved share of the
				// logical files.
				shards := make([][]string, workers)
				for i, lg := range e.logicals {
					shards[i%workers] = append(shards[i%workers], lg)
				}
				var mu sync.Mutex
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					switch mode {
					case "pull":
						for _, shard := range shards {
							wg.Add(1)
							go func(shard []string) {
								defer wg.Done()
								for _, lg := range shard {
									if _, err := rankPull(e, &mu, lg); err != nil {
										b.Error(err)
										return
									}
								}
							}(shard)
						}
					case "snapshot":
						view := e.sel.PinView(e.now)
						for _, shard := range shards {
							wg.Add(1)
							go func(shard []string) {
								defer wg.Done()
								for _, lg := range shard {
									if _, err := view.Rank(lg); err != nil {
										b.Error(err)
										return
									}
								}
							}(shard)
						}
					}
					wg.Wait()
				}
				b.StopTimer()
				ranks := float64(b.N) * float64(len(e.logicals))
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(ranks/secs, "ranks/s")
				}
			})
		}
	}
}

// BenchmarkHierarchicalRank is the read select-churn and the traffic plane
// make once per request: HierarchicalServer.Rank of a Zipf-drawn file on a
// 10-region topo.NewWorld (1,000 hosts, 10,000 files of 4 replicas, each
// in its own region), against region snapshots pinned before the timer
// starts. One op is one Rank. Recorded to BENCH_select.json via `make
// bench-select`.
func BenchmarkHierarchicalRank(b *testing.B) {
	const files = 10_000
	spec := topo.Spec{Seed: benchSeed, Regions: 10, SitesPerRegion: 4, ClustersPerSite: 1, HostsPerCluster: 25}
	w, err := topo.NewWorld(spec, simulation.NewEngine(), files, 4, 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(benchSeed)), 1.4, 1, files-1)
	names := make([]string, 4096)
	for i := range names {
		names[i] = "lfn:d" + strconv.FormatUint(zipf.Uint64(), 10)
	}
	for _, name := range names { // pin every region's snapshot and view
		if _, err := w.Server.Rank(name, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Server.Rank(names[i%len(names)], 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalogPlace is the catalog build both catalog-bound workloads
// start with: topo.PlaceFiles into a fresh region-sharded catalog, on
// select-churn's world (10,000 hosts, 100,000 files x 4 replicas) and on
// metro-traffic's (100 hosts, 200 files x 2). The topology is generated
// before the timer starts; one op is one whole placement. retained-B/file
// is the heap the placed catalog keeps, measured after runtime.GC().
// Recorded to BENCH_select.json via `make bench-select`.
func BenchmarkCatalogPlace(b *testing.B) {
	for _, c := range []struct {
		name            string
		spec            topo.Spec
		files, replicas int
	}{
		{"churn", topo.Spec{Seed: benchSeed, Regions: 10, SitesPerRegion: 20, ClustersPerSite: 2, HostsPerCluster: 25}, 100_000, 4},
		{"metro", topo.Spec{Seed: benchSeed + 104729, Regions: 4, SitesPerRegion: 5, ClustersPerSite: 1, HostsPerCluster: 5}, 200, 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			top, err := topo.Generate(c.spec)
			if err != nil {
				b.Fatal(err)
			}
			var retained float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var before, after runtime.MemStats
				if i == 0 {
					b.StopTimer()
					runtime.GC()
					runtime.ReadMemStats(&before)
					b.StartTimer()
				}
				cat := replica.NewSharded(topo.RegionOfHost)
				if err := top.PlaceFiles(cat, c.files, c.replicas, 64<<20); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.StopTimer()
					runtime.GC()
					runtime.ReadMemStats(&after)
					retained = float64(after.HeapAlloc-before.HeapAlloc) / float64(c.files)
					runtime.KeepAlive(cat)
					b.StartTimer()
				}
			}
			b.ReportMetric(retained, "retained-B/file")
		})
	}
}
