// Bioinformatics workload: the paper's §3.2 motivating scenario — "we can
// treat a biological database as a replica of Data Grid". A cluster of
// scientists at THU runs BLAST-style jobs against sequence databases that
// are replicated across the grid; every job first fetches its database
// through the replica selection pipeline while compute jobs and background
// traffic churn the testbed.
//
//	go run ./examples/bioinformatics
//
// The example compares the cost-model selector against random selection on
// the identical request sequence and prints per-database statistics.
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"sort"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/info"
	"github.com/hpclab/datagrid/internal/metrics"
	"github.com/hpclab/datagrid/internal/replica"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/simxfer"
	"github.com/hpclab/datagrid/internal/workload"
)

// database describes one replicated sequence collection (2005-era sizes).
type database struct {
	name   string
	sizeMB int64
	hosts  []string
}

var databases = []database{
	{"ncbi-nr", 1500, []string{"alpha4", "hit0"}},
	{"swissprot", 250, []string{"alpha3", "lz02"}},
	{"pdb-seqres", 120, []string{"hit0", "lz03"}},
	{"est-human", 900, []string{"gridhit2", "lz02"}},
}

type outcome struct {
	fetches int
	byFile  map[string][]float64
	chosen  map[string]int
}

func runPolicy(policyName string, mkSelector func() core.Selector, seed int64, span time.Duration) (*outcome, error) {
	engine := simulation.NewEngine()
	testbed, err := cluster.NewPaperTestbed(engine)
	if err != nil {
		return nil, err
	}
	if err := cluster.StartPaperDynamics(testbed, seed); err != nil {
		return nil, err
	}

	// Monitor every host that holds a database.
	remoteSet := map[string]bool{}
	for _, db := range databases {
		for _, h := range db.hosts {
			remoteSet[h] = true
		}
	}
	var remotes []string
	for h := range remoteSet {
		remotes = append(remotes, h)
	}
	sort.Strings(remotes)
	dep, err := info.Deploy(testbed, info.DeploymentConfig{Local: "alpha1", Remotes: remotes})
	if err != nil {
		return nil, err
	}

	catalog := replica.NewCatalog()
	var names []string
	for _, db := range databases {
		if err := catalog.CreateLogical(replica.LogicalFile{
			Name:       db.name,
			SizeBytes:  db.sizeMB * workload.MB,
			Attributes: map[string]string{"type": "biological-database"},
		}); err != nil {
			return nil, err
		}
		for _, h := range db.hosts {
			if err := catalog.Register(db.name, replica.Location{Host: h, Path: "/db/" + db.name}); err != nil {
				return nil, err
			}
		}
		names = append(names, db.name)
	}

	selection, err := core.NewSelectionServer(catalog, dep.Server.Publisher(), core.PaperWeights, mkSelector())
	if err != nil {
		return nil, err
	}
	xfer, err := simxfer.New(testbed)
	if err != nil {
		return nil, err
	}
	app, err := core.NewApplication("alpha1",
		selection, xfer.TransferFunc(simxfer.GridFTPOptions(4)), engine)
	if err != nil {
		return nil, err
	}

	// Compute jobs churn the database hosts while transfers run: each
	// lands on a random database host and holds CPU and I/O load for an
	// exponentially distributed time.
	jobRNG := rand.New(rand.NewSource(seed + 1))
	if _, err := workload.NewArrivals(engine, jobRNG, workload.ConstantRate(2), func(time.Duration) {
		h, err := testbed.Host(remotes[jobRNG.Intn(len(remotes))])
		if err != nil {
			return
		}
		job, err := h.AddJob(0.35, 0.25)
		if err != nil {
			return
		}
		dur := time.Duration(jobRNG.ExpFloat64() * float64(4*time.Minute))
		if _, err := engine.After(dur, func(time.Duration) { job.Release() }); err != nil {
			job.Release()
		}
	}); err != nil {
		return nil, err
	}

	out := &outcome{byFile: map[string][]float64{}, chosen: map[string]int{}}
	// BLAST jobs arrive as a Poisson process; popular databases are hit
	// more (Zipf).
	reqRNG := rand.New(rand.NewSource(seed + 2))
	zipf := rand.NewZipf(reqRNG, 1.4, 1, uint64(len(names)-1))
	if _, err := workload.NewArrivals(engine, reqRNG, workload.ConstantRate(0.5), func(time.Duration) {
		name := names[zipf.Uint64()]
		err := app.Fetch(name, func(r core.FetchResult, err error) {
			if err != nil {
				return // e.g. replica data momentarily unavailable
			}
			out.fetches++
			out.byFile[name] = append(out.byFile[name], r.Duration().Seconds())
			out.chosen[r.Chosen.Location.Host]++
		})
		if err != nil {
			log.Printf("%s: fetch %s: %v", policyName, name, err)
		}
	}); err != nil {
		return nil, err
	}

	if err := engine.RunUntil(span); err != nil {
		return nil, err
	}
	return out, nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	const seed = 11
	const span = 2 * time.Hour

	smart, err := runPolicy("cost-model", func() core.Selector {
		return core.CostModelSelector{Weights: core.PaperWeights}
	}, seed, span)
	if err != nil {
		return err
	}
	naive, err := runPolicy("random", func() core.Selector {
		return core.NewRandomSelector(seed)
	}, seed, span)
	if err != nil {
		return err
	}

	tb := metrics.NewTable(
		fmt.Sprintf("BLAST database staging over %v of grid time (user cluster: THU)", span),
		"database", "fetches", "cost-model mean (s)", "random mean (s)")
	var names []string
	for _, db := range databases {
		names = append(names, db.name)
	}
	for _, n := range names {
		s, _ := metrics.Mean(smart.byFile[n])
		r, _ := metrics.Mean(naive.byFile[n])
		tb.AddRow(n, fmt.Sprintf("%d", len(smart.byFile[n])),
			fmt.Sprintf("%.1f", s), fmt.Sprintf("%.1f", r))
	}
	fmt.Fprintln(out, tb.String())

	var all, allNaive []float64
	for _, n := range names {
		all = append(all, smart.byFile[n]...)
		allNaive = append(allNaive, naive.byFile[n]...)
	}
	ms, _ := metrics.Mean(all)
	mn, _ := metrics.Mean(allNaive)
	fmt.Fprintf(out, "overall: cost-model %.1fs vs random %.1fs per staging (%.0f%% faster)\n\n",
		ms, mn, 100*(mn-ms)/mn)

	pick := metrics.NewTable("replica hosts chosen by the cost model", "host", "times chosen")
	var hosts []string
	for h := range smart.chosen {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		pick.AddRow(h, fmt.Sprintf("%d", smart.chosen[h]))
	}
	fmt.Fprintln(out, pick.String())
	return nil
}
