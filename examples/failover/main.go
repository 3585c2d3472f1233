// Failover walkthrough: what the replica selection stack does when a grid
// site drops off the network. A client fetches the same file repeatedly
// while the best replica's WAN link dies and later recovers; the NWS
// probes stall, the bandwidth series goes stale, the information server
// declares the host unmonitored, and the selection server quietly routes
// requests to the next-best replica until the link returns.
//
//	go run ./examples/failover
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
	const seed = 21
	engine := simulation.NewEngine()
	testbed, err := cluster.NewPaperTestbed(engine)
	if err != nil {
		return err
	}
	if err := cluster.StartPaperDynamics(testbed, seed); err != nil {
		return err
	}
	dep, err := info.Deploy(testbed, info.DeploymentConfig{
		Local:   "alpha1",
		Remotes: []string{"hit0", "lz02"},
	})
	if err != nil {
		return err
	}
	catalog := replica.NewCatalog()
	if err := catalog.CreateLogical(replica.LogicalFile{Name: "file-a", SizeBytes: 256_000_000}); err != nil {
		return err
	}
	for _, h := range []string{"hit0", "lz02"} {
		if err := catalog.Register("file-a", replica.Location{Host: h, Path: "/data/file-a"}); err != nil {
			return err
		}
	}
	selection, err := core.NewSelectionServer(catalog, dep.Server.Publisher(), core.PaperWeights, nil)
	if err != nil {
		return err
	}
	xfer, err := simxfer.New(testbed)
	if err != nil {
		return err
	}
	app, err := core.NewApplication("alpha1",
		selection, xfer.TransferFunc(simxfer.GridFTPOptions(4)), engine)
	if err != nil {
		return err
	}

	tb := metrics.NewTable("fetching file-a every 3 minutes while hit0's uplink fails and recovers",
		"t", "event", "chosen replica", "fetch time")
	hitSwitch := cluster.SwitchNode(cluster.SiteHIT)
	thuSwitch := cluster.SwitchNode(cluster.SiteTHU)

	var stepErr error
	fetch := func(event string) {
		if stepErr != nil {
			return
		}
		done := false
		err := app.Fetch("file-a", func(r core.FetchResult, err error) {
			done = true
			if err != nil {
				tb.AddRow(fmtMin(engine.Now()), event, "-", "FAILED: "+err.Error())
				return
			}
			tb.AddRow(fmtMin(r.Started), event, r.Chosen.Location.Host,
				r.Duration().Round(time.Millisecond).String())
		})
		if err != nil {
			stepErr = err
			return
		}
		for !done {
			if err := engine.RunUntil(engine.Now() + time.Minute); err != nil {
				stepErr = err
				return
			}
		}
	}
	advanceTo := func(at time.Duration) {
		if stepErr != nil {
			return
		}
		stepErr = engine.RunUntil(at)
	}

	advanceTo(3 * time.Minute)
	fetch("healthy grid")
	advanceTo(6 * time.Minute)
	fetch("healthy grid")
	if stepErr != nil {
		return stepErr
	}

	// Sever HIT from THU.
	if err := testbed.Network().SetLinkDown(hitSwitch, thuSwitch, true); err != nil {
		return err
	}
	if err := testbed.Network().SetLinkDown(thuSwitch, hitSwitch, true); err != nil {
		return err
	}
	fmt.Fprintln(out, "t=6m: HIT <-> THU backbone cut")
	// NWS probes must stall and expire before selection reacts.
	advanceTo(9 * time.Minute)
	fetch("hit0 unreachable")
	advanceTo(12 * time.Minute)
	fetch("hit0 unreachable")
	if stepErr != nil {
		return stepErr
	}

	// Repair the backbone.
	if err := testbed.Network().SetLinkDown(hitSwitch, thuSwitch, false); err != nil {
		return err
	}
	if err := testbed.Network().SetLinkDown(thuSwitch, hitSwitch, false); err != nil {
		return err
	}
	fmt.Fprintln(out, "t=12m: backbone repaired")
	advanceTo(15 * time.Minute)
	fetch("recovered")
	if stepErr != nil {
		return stepErr
	}

	fmt.Fprintln(out)
	fmt.Fprintln(out, tb.String())
	fmt.Fprintln(out, "during the outage the selection server never offered hit0: its")
	fmt.Fprintln(out, "bandwidth series went stale once probes timed out, so Rank skipped it.")
	return nil
}

func fmtMin(d time.Duration) string {
	return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
}
