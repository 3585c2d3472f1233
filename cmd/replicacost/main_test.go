package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/experiments"
)

// fixedPoints is a hand-built cost series over two snapshot epochs — two
// sampling rows of three candidates each, as CostSeries would produce.
func fixedPoints() []experiments.CostPoint {
	return []experiments.CostPoint{
		{At: 0, Host: "alpha4", Score: 90.5, Epoch: 7},
		{At: 0, Host: "hit0", Score: 62.1, Epoch: 7},
		{At: 0, Host: "lz02", Score: 18.3, Epoch: 7},
		{At: 10 * time.Second, Host: "alpha4", Score: 88.0, Epoch: 8},
		{At: 10 * time.Second, Host: "hit0", Score: 64.9, Epoch: 8},
		{At: 10 * time.Second, Host: "lz02", Score: 20.1, Epoch: 8},
	}
}

func TestRenderFixedSnapshotSeries(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := render(fixedPoints(), 42, 10*time.Second, 2, &stdout, &stderr); code != 0 {
		t.Fatalf("render exited %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"Replica costs toward alpha1 (seed 42)",
		"grid-state snapshots: epochs 7..8 (2 distinct epochs over 6 samples)",
		"Average cost over the last 2 samples",
		"Replicas sorted by cost (best first)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q\n%s", want, out)
		}
	}
	// The sorted cost list must rank alpha4 first: its sliding-window
	// average (89.25) dominates both others.
	rankIdx := strings.Index(out, "Replicas sorted by cost")
	ranked := out[rankIdx:]
	if !strings.Contains(ranked, "alpha4") || strings.Index(ranked, "alpha4") > strings.Index(ranked, "hit0") {
		t.Errorf("alpha4 should rank before hit0:\n%s", ranked)
	}
	// A time scale of one sample averages only the latest row.
	stdout.Reset()
	if code := render(fixedPoints(), 42, 10*time.Second, 1, &stdout, &stderr); code != 0 {
		t.Fatalf("render exited %d, stderr: %s", code, stderr.String())
	}
	if out := stdout.String(); !strings.Contains(out, "alpha4  88.00") || !strings.Contains(out, "lz02    20.10") {
		t.Errorf("time scale 1 should average the last sample only:\n%s", out)
	}
}

func TestRunRejectsBadTimescale(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-timescale", "0"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run with -timescale 0 exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "timescale") {
		t.Errorf("stderr should mention timescale: %s", stderr.String())
	}
}

func TestRunEndToEndShortSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the monitored testbed")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-seed", "42", "-span", "30s", "-period", "10s", "-timescale", "2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "grid-state snapshots: epochs") {
		t.Errorf("output lacks snapshot epoch line:\n%s", stdout.String())
	}
}
