package main

import (
	"math"
	"os"
	"testing"
)

func TestParseTracesAndAttribute(t *testing.T) {
	f, err := os.Open("testdata/pprof_traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 9 {
		t.Fatalf("parsed %d samples, want 9", len(samples))
	}
	if s := samples[1]; s.seconds != 1.2 || len(s.frames) != 17 ||
		s.frames[0] != "github.com/hpclab/datagrid/internal/netsim.(*Network).waterfill" || s.frames[16] != "runtime.main" {
		t.Errorf("second sample = %+v", s)
	}

	// Each sample goes to the innermost frame inside a repo package: the
	// write barrier under eventQueue.Swap is simulation's, the allocation
	// under launch is simxfer's, the generic sort under Rank is core's. The
	// collector's own workers are runtime.gc_share; the scheduler, the
	// standard library's internal/ packages and gridperf's own loop are
	// other_share.
	want := map[string]float64{
		"netsim.cpu_share":     0.600,
		"simulation.cpu_share": 0.100,
		"simxfer.cpu_share":    0.075,
		"traffic.cpu_share":    0.045,
		"core.cpu_share":       0.025,
		"runtime.gc_share":     0.100,
		"other_share":          0.055,
	}
	got := attribute(samples)
	sum := 0.0
	for k, v := range got {
		sum += v
		if math.Abs(v-want[k]) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, v, want[k])
		}
	}
	if len(got) != len(want) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares %v sum to %v, want the %d rows above summing to 1", got, sum, len(want))
	}
}

func TestParseDuration(t *testing.T) {
	for in, want := range map[string]float64{"10ms": 0.01, "1.52s": 1.52, "250us": 250e-6, "2mins": 120} {
		if got, err := parseDuration(in); err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseDuration("flat"); err == nil {
		t.Error("parseDuration(flat) did not fail")
	}
}
