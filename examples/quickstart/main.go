// Quickstart: the paper's replica selection scenario (Fig. 1) end to end
// on the simulated three-cluster testbed.
//
//	go run ./examples/quickstart
//
// It builds the THU/Li-Zen/HIT testbed, installs the monitoring stack
// (NWS + MDS + sysstat), registers a 1 GB logical file with replicas at
// three sites, lets the monitors warm up, ranks the replicas with the
// 80/10/10 cost model and fetches the best one over simulated GridFTP.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/info"
	"github.com/hpclab/datagrid/internal/metrics"
	"github.com/hpclab/datagrid/internal/replica"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/simxfer"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	const seed = 7

	// 1. The testbed: three PC clusters joined by a WAN, with synthetic
	//    host load and background traffic.
	engine := simulation.NewEngine()
	testbed, err := cluster.NewPaperTestbed(engine)
	if err != nil {
		return err
	}
	if err := cluster.StartPaperDynamics(testbed, seed); err != nil {
		return err
	}

	// 2. The monitoring stack: the user works on THU's alpha1; candidate
	//    replica hosts are monitored from there.
	dep, err := info.Deploy(testbed, info.DeploymentConfig{
		Local:   "alpha1",
		Remotes: []string{"alpha4", "hit0", "lz02"},
	})
	if err != nil {
		return err
	}

	// 3. The replica catalog: one logical file, three physical copies.
	catalog := replica.NewCatalog()
	if err := catalog.CreateLogical(replica.LogicalFile{
		Name:       "file-a",
		SizeBytes:  1024 * 1_000_000,
		Attributes: map[string]string{"type": "biological-database"},
	}); err != nil {
		return err
	}
	for _, host := range []string{"alpha4", "hit0", "lz02"} {
		if err := catalog.Register("file-a", replica.Location{Host: host, Path: "/data/file-a"}); err != nil {
			return err
		}
	}

	// 4. The replica selection server with the paper's weights.
	selection, err := core.NewSelectionServer(catalog, dep.Server.Publisher(), core.PaperWeights, nil)
	if err != nil {
		return err
	}

	// 5. The client application, fetching over simulated GridFTP with
	//    four parallel streams via the unified transfer API.
	xfer, err := simxfer.New(testbed)
	if err != nil {
		return err
	}
	app, err := core.NewApplication("alpha1",
		selection, xfer.TransferFunc(simxfer.GridFTPOptions(4)), engine)
	if err != nil {
		return err
	}

	// Warm the monitors up, then pin a grid-state snapshot and rank the
	// replicas against that single consistent view.
	if err := engine.RunUntil(3 * time.Minute); err != nil {
		return err
	}
	view := selection.PinView(engine.Now())
	ranked, err := view.Rank("file-a")
	if err != nil {
		return err
	}
	tb := metrics.NewTable(
		fmt.Sprintf("Replica ranking for file-a (user at alpha1, snapshot epoch %d)", view.Epoch()),
		"host", "BW %", "CPU idle %", "I/O idle %", "score")
	for _, c := range ranked {
		tb.AddRow(c.Location.Host,
			fmt.Sprintf("%.1f", c.Report.BandwidthPercent),
			fmt.Sprintf("%.1f", c.Report.CPUIdlePercent),
			fmt.Sprintf("%.1f", c.Report.IOIdlePercent),
			fmt.Sprintf("%.2f", c.Score))
	}
	fmt.Fprintln(out, tb.String())

	// Fetch: the selection server picks the best replica, GridFTP moves it.
	done := false
	var fetchErr error
	err = app.Fetch("file-a", func(r core.FetchResult, err error) {
		done = true
		if err != nil {
			fetchErr = err
			return
		}
		fmt.Fprintf(out, "fetched %s from %s in %v (virtual time)\n",
			r.Logical, r.Chosen.Location, r.Duration().Round(time.Millisecond))
	})
	if err != nil {
		return err
	}
	for !done {
		if err := engine.RunUntil(engine.Now() + time.Minute); err != nil {
			return err
		}
	}
	return fetchErr
}
