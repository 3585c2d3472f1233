package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/hpclab/datagrid/internal/placement"
	"github.com/hpclab/datagrid/internal/runner"
)

func TestSuiteRegistry(t *testing.T) {
	entries := Suite()
	if len(entries) != 15 {
		t.Fatalf("suite has %d entries, want 15", len(entries))
	}
	validGroups := map[string]bool{
		GroupFigure3: true, GroupFigure4: true, GroupTable1: true,
		GroupAblations: true, GroupExtensions: true, GroupFaults: true,
		GroupScale: true, GroupTraffic: true,
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if e.Name == "" || e.Run == nil {
			t.Errorf("entry %+v incomplete", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("duplicate entry name %q", e.Name)
		}
		seen[e.Name] = true
		if !validGroups[e.Group] {
			t.Errorf("entry %q has unknown group %q", e.Name, e.Group)
		}
	}
	// The registry preserves the historical -all print order: figures,
	// table, ablations, extensions. The opt-in sweeps (faults, planet
	// scale, traffic) ride at the end, outside the -all groups.
	if entries[0].Name != "figure 3" || entries[2].Name != "table 1" ||
		entries[len(entries)-4].Name != "coallocation extension" ||
		entries[len(entries)-3].Group != GroupFaults ||
		entries[len(entries)-2].Group != GroupScale ||
		entries[len(entries)-1].Group != GroupTraffic {
		t.Errorf("registry order changed: first=%q last=%q", entries[0].Name, entries[len(entries)-1].Name)
	}
}

func TestRunEntriesCollectsAllFailures(t *testing.T) {
	boom := errors.New("boom")
	mk := func(name string, err error) SuiteEntry {
		return SuiteEntry{Name: name, Group: GroupAblations,
			Run: func(seed int64, workers int) (string, []Metric, error) {
				if err != nil {
					return "", nil, err
				}
				return name + " output", []Metric{{Name: name, Value: float64(seed)}}, nil
			}}
	}
	entries := []SuiteEntry{mk("a", nil), mk("b", boom), mk("c", nil)}
	results, err := RunEntries(entries, 7, 2)
	if err == nil {
		t.Fatal("RunEntries should surface the joined failure")
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if results[0].Err != nil || results[0].Output != "a output" {
		t.Errorf("entry a: %+v", results[0])
	}
	if results[1].Err == nil || !errors.Is(results[1].Err, boom) {
		t.Errorf("entry b should fail with boom, got %v", results[1].Err)
	}
	if results[2].Err != nil || results[2].Output != "c output" {
		t.Errorf("entry c must run despite b's failure: %+v", results[2])
	}
	if results[0].Metrics[0].Value != 7 {
		t.Errorf("seed not threaded through: %v", results[0].Metrics)
	}
}

func TestReplicateSeedsAndAggregation(t *testing.T) {
	var gotSeeds []int64
	entry := SuiteEntry{Name: "fake", Run: func(seed int64, workers int) (string, []Metric, error) {
		gotSeeds = append(gotSeeds, seed) // trials run on 1 worker here, so append is safe
		return "", []Metric{
			{Name: "constant", Value: 3},
			{Name: "varying", Value: float64(seed%1000) / 10},
		}, nil
	}}
	rep, err := Replicate(entry, 42, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{42, runner.DeriveSeed(42, 1), runner.DeriveSeed(42, 2)}
	for i, s := range want {
		if rep.Seeds[i] != s {
			t.Errorf("trial %d seed = %d, want %d", i, rep.Seeds[i], s)
		}
	}
	if len(gotSeeds) != 3 {
		t.Fatalf("entry ran %d times, want 3", len(gotSeeds))
	}
	if len(rep.Metrics) != 2 {
		t.Fatalf("got %d metric summaries, want 2", len(rep.Metrics))
	}
	constant := rep.Metrics[0]
	if constant.Name != "constant" || constant.Mean != 3 || constant.CI95Half != 0 {
		t.Errorf("constant metric = %+v", constant)
	}
	varying := rep.Metrics[1]
	if len(varying.Values) != 3 || varying.CI95Half <= 0 {
		t.Errorf("varying metric should have positive CI over 3 distinct seeds: %+v", varying)
	}
	if !strings.Contains(rep.Table(), "fake: 3 trials") {
		t.Errorf("table header missing trial count:\n%s", rep.Table())
	}
}

func TestReplicateRejectsZeroTrials(t *testing.T) {
	_, err := Replicate(SuiteEntry{Name: "x"}, 1, 0, 1)
	if err == nil {
		t.Fatal("trials=0 should error")
	}
}

func TestReplicateTrialZeroMatchesSingleRun(t *testing.T) {
	// The replication contract: trial 0 is the base seed verbatim, so a
	// 1-trial replication reproduces the published run exactly.
	entry := SuiteEntry{Name: "echo", Run: func(seed int64, workers int) (string, []Metric, error) {
		return fmt.Sprintf("seed=%d", seed), []Metric{{Name: "seed", Value: float64(seed)}}, nil
	}}
	rep, err := Replicate(entry, 42, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics[0].Mean != 42 || rep.Metrics[0].CI95Half != 0 {
		t.Errorf("1-trial replication must echo the base seed run: %+v", rep.Metrics[0])
	}
}

// TestSweepOrdersResultsAndNamesTheFailingPoint: results come back in
// point order at any worker count, and a failing point's error names the
// experiment and the point — through its String method when it holds a
// func, never as a func or pointer value.
func TestSweepOrdersResultsAndNamesTheFailingPoint(t *testing.T) {
	points := []int{5, 3, 8, 1, 9, 2}
	for _, workers := range []int{1, 4} {
		got, err := sweep(workers, "square", points, func(p int) (int, error) { return p * p, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range points {
			if got[i] != p*p {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, got[i], p*p)
			}
		}
	}
	boom := errors.New("boom")
	type cell struct {
		sizeMB int64
		proto  string
	}
	_, err := sweep(2, "figure 3", []cell{{256, "ftp"}, {512, "ftp"}}, func(c cell) (float64, error) {
		if c.sizeMB == 512 {
			return 0, boom
		}
		return 1, nil
	})
	if !errors.Is(err, boom) || err.Error() != "figure 3: point {512 ftp}: boom" {
		t.Fatalf("err = %v, want figure 3: point {512 ftp}: boom", err)
	}
	// Every point runs and every failure is named, in point order: the
	// same text at any worker count.
	for _, workers := range []int{1, 8} {
		_, err := sweep(workers, "figure 4", []cell{{64, "ftp"}, {256, "gridftp"}, {512, "ftp"}, {1024, "gridftp"}}, func(c cell) (float64, error) {
			if c.proto == "gridftp" {
				return 0, fmt.Errorf("%d MB: %w", c.sizeMB, boom)
			}
			return 1, nil
		})
		const want = "figure 4: point {256 gridftp}: 256 MB: boom\nfigure 4: point {1024 gridftp}: 1024 MB: boom"
		if !errors.Is(err, boom) || err.Error() != want {
			t.Fatalf("workers=%d: err = %q, want %q", workers, err, want)
		}
	}
	st := replicationStrategy{"failing", func(*siteExecutor) (placement.Policy, error) { return nil, boom }}
	_, err = sweep(1, "replication extension", []replicationStrategy{st}, func(replicationStrategy) (int, error) { return 0, boom })
	if err == nil || err.Error() != "replication extension: point failing: boom" {
		t.Fatalf("err = %v, want replication extension: point failing: boom", err)
	}
}
