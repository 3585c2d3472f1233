package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/hpclab/datagrid/internal/faults"
	"github.com/hpclab/datagrid/internal/simxfer"
)

// TestExtensionFaults pins the properties the fault-tolerance sweep
// exists to show: the grid shape, the fault-free control rows agreeing
// across policies, and failover-reselect completing at least as many
// transfers as the no-retry baseline at every intensity — strictly more
// at some intensity, or the sweep has stopped demonstrating anything.
func TestExtensionFaults(t *testing.T) {
	rows, out, err := ExtensionFaults(42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12 (4 intensities x 3 policies)", len(rows))
	}
	if out == "" {
		t.Fatal("empty table")
	}
	type key struct {
		intensity int
		policy    string
	}
	byPoint := map[key]FaultsResult{}
	for _, r := range rows {
		if r.Completed+r.Failed != faultsTransfers {
			t.Errorf("%+v: completed+failed = %d, want %d", r, r.Completed+r.Failed, faultsTransfers)
		}
		if r.Attempts < r.Completed {
			t.Errorf("%+v: fewer attempts than completions", r)
		}
		byPoint[key{r.Intensity, r.Policy}] = r
	}
	// Without faults every policy is the same code path: all transfers
	// complete on the first attempt with identical timing.
	ctrl := byPoint[key{0, "no-retry"}]
	if ctrl.Completed != faultsTransfers || ctrl.Attempts != faultsTransfers {
		t.Errorf("fault-free control should complete all first-try: %+v", ctrl)
	}
	for _, pol := range []string{"retry-same", "failover-reselect"} {
		got := byPoint[key{0, pol}]
		if got.Completed != ctrl.Completed || got.MeanSeconds != ctrl.MeanSeconds {
			t.Errorf("fault-free %s diverged from control: %+v vs %+v", pol, got, ctrl)
		}
	}
	sawAdvantage := false
	for i := 0; i <= 3; i++ {
		nr := byPoint[key{i, "no-retry"}]
		fo := byPoint[key{i, "failover-reselect"}]
		if fo.Completed < nr.Completed {
			t.Errorf("intensity %d: failover completed %d < no-retry %d", i, fo.Completed, nr.Completed)
		}
		if fo.Completed > nr.Completed {
			sawAdvantage = true
		}
	}
	if !sawAdvantage {
		t.Error("no intensity shows failover-reselect completing transfers no-retry fails")
	}
}

// TestExtensionFaultsDeterministic pins worker-count independence: the
// sweep's jobs run on the shared pool, and parallel execution must not
// leak into results.
func TestExtensionFaultsDeterministic(t *testing.T) {
	seq, _, err := ExtensionFaults(42, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := ExtensionFaults(42, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("results differ across worker counts:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestEmptyFaultPlanEqualsNoInjector holds a metamorphic relation: a fault
// plan with zero episodes is no fault plan. The paper testbed with
// monitoring runs faultsPoint's failover-reselect transfer sequence twice,
// once with an injector holding an empty plan and once with no injector;
// every transfer's Result and the engine's fired-event count must agree.
func TestEmptyFaultPlanEqualsNoInjector(t *testing.T) {
	run := func(inject bool) (string, uint64) {
		t.Helper()
		env, err := NewEnv(42, true)
		if err != nil {
			t.Fatal(err)
		}
		if inject {
			inj, err := faults.NewInjector(env.Testbed, env.Deploy)
			if err != nil {
				t.Fatal(err)
			}
			if err := inj.Install(&faults.Plan{}); err != nil {
				t.Fatal(err)
			}
		}
		srv, _, err := env.selectFile("file-a", faultsFileBytes, fileAAttrs, faultsReplicaHosts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Engine.RunUntil(Warmup); err != nil {
			t.Fatal(err)
		}
		alive := func(h string) bool {
			down, err := env.Testbed.HostDown(h)
			return err == nil && !down
		}
		var log strings.Builder
		err = env.sequence("empty-plan sequence", faultsTransfers, faultsGap, func(_ int, done func(error)) error {
			ranked, err := srv.RankHosts("file-a", env.Engine.Now(), nil)
			if err != nil {
				return err
			}
			return env.Xfer.Submit(simxfer.Request{
				Sources:  ranked,
				Dst:      "alpha1",
				Bytes:    faultsFileBytes,
				Options:  simxfer.GridFTPOptions(4),
				Failover: faultsPolicy(simxfer.FailoverReselect, srv, alive),
				Done: func(r simxfer.Result) {
					fmt.Fprintf(&log, "%+v\n", r)
					done(nil)
				},
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return log.String(), env.Engine.Fired()
	}
	withPlan, firedWith := run(true)
	without, firedWithout := run(false)
	if n := strings.Count(without, "\n"); n != faultsTransfers {
		t.Fatalf("%d transfers finished, want %d", n, faultsTransfers)
	}
	if withPlan != without {
		t.Errorf("results differ with an empty plan installed:\n%s\nwithout an injector:\n%s", withPlan, without)
	}
	if firedWith != firedWithout {
		t.Errorf("fired %d events with an empty plan installed, %d without an injector", firedWith, firedWithout)
	}
}
