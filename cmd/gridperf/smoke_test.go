package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// Every workload at smoke scale: set-up, the program's own path, and the
// traced path with the recorder on, all with their output checks. This is
// what keeps gridperf compiling and correct against the layers' APIs.
func TestSmokeWorkloads(t *testing.T) {
	listed := map[string]bool{}
	for _, d := range layerMetrics {
		listed[d.Name] = true
	}
	spansWanted := map[string][]string{
		"planet-traffic": {"replay", "topo.generate", "topo.build", "replica.place", "faults.install", "gridstate.publish",
			"simulation.rununtil", "core.rank", "placement.access", "placement.epoch", "simxfer.submit"},
		"select-churn": {"churn", "core.rank", "replica.register", "replica.unregister", "gridstate.publish"},
		"paper-suite":  {"suite", "experiments.run_entries"},
	}
	spansWanted["metro-traffic"] = spansWanted["planet-traffic"]
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			var m meter
			w, err := def.setup(42, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			real, err := w.real(&m)
			if err != nil {
				t.Fatal(err)
			}
			if m.WallS <= 0 || m.Mallocs == 0 {
				t.Errorf("meter read %+v around the timed section", m)
			}
			rec := newRecorder()
			if w, err = def.setup(42, true, rec); err != nil {
				t.Fatal(err)
			}
			traced, err := w.traced(rec, &m)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range append(real.Failures, traced.Failures...) {
				t.Errorf("output check failed: %s", f)
			}
			if real.Ops == 0 || real.Digest == "" || traced.Ops != real.Ops {
				t.Errorf("program's own path: %d ops, digest %q; traced path: %d ops", real.Ops, real.Digest, traced.Ops)
			}
			// replay is a copy of traffic.Run: on the same spec the modelled
			// grid must come out the same to the last bit.
			if !reflect.DeepEqual(real.Sim, traced.Sim) {
				t.Errorf("modelled results differ: program's own path %v, traced path %v", real.Sim, traced.Sim)
			}
			for name := range traced.Layers {
				if !listed[name] {
					t.Errorf("driver reports %s, which layerMetrics does not list", name)
				}
			}
			totals := rec.totals()
			for _, name := range spansWanted[def.name] {
				if totals[name].Count == 0 {
					t.Errorf("no %s span recorded", name)
				}
			}
			layers := layerTable(traced.Layers, rec, totals, map[string]float64{"netsim.cpu_share": 0.7, "lint.cpu_share": 0.3})
			if len(layers) != len(layerMetrics) || layers["other_share"] != 0.3 {
				t.Errorf("layer table has %d rows (want %d), other_share %v (want the unlisted package's 0.3)",
					len(layers), len(layerMetrics), layers["other_share"])
			}
		})
	}
}

func TestSelectChurnRepeatsPerSeed(t *testing.T) {
	digests := map[int64]string{}
	for _, seed := range []int64{7, 7, 8} {
		var m meter
		w, err := setupChurn(seed, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := w.real(&m)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := digests[seed]; ok && prev != out.Digest {
			t.Errorf("seed %d gave digests %s and %s", seed, prev, out.Digest)
		}
		digests[seed] = out.Digest
	}
	if digests[7] == digests[8] {
		t.Error("seeds 7 and 8 gave the same op stream")
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs(strings.Fields("--workload metro-traffic --seed 7 --seconds 16 --trace 1"))
	want := strings.Fields("--workload metro-traffic --seed 7 --seconds 16 -trace=true")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
	got = normalizeArgs(strings.Fields("-trace 0 -seed 1 -trace"))
	want = strings.Fields("-trace=false -seed 1 -trace")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
}

// The values a rep reports are the ones the driver's line names.
func TestRepValuesCoverEndToEndMetrics(t *testing.T) {
	c := &childResult{
		meter:     meter{WallS: 8, CPUS: 9, Mallocs: 2000, AllocBytes: 4096000},
		SetupS:    []float64{3, 1, 2},
		Outcome:   &outcome{Ops: 1000, Sim: map[string]float64{"sim_p50_s": 1.5}},
		PeakRSSMB: 12,
	}
	v := c.values()
	for _, d := range hostMetrics {
		if x, ok := v[d.Name]; !ok || x <= 0 {
			t.Errorf("rep reports %s = %v, %v", d.Name, x, ok)
		}
	}
	if v["allocs_per_op"] != 2 || v["alloc_kb_per_op"] != 4 || v["setup_s"] != 1 || v["sim_p50_s"] != 1.5 {
		t.Errorf("values = %v", v)
	}
	line := driverLine{Correct: true, Attempted: 1000, Metrics: map[string]driverValue{"wall_s": {8.25, "s"}}}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(line); err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":1000,"failed":0,"metrics":{"wall_s":{"value":8.25,"unit":"s"}}}` + "\n"
	if buf.String() != want || math.IsNaN(v["wall_s"]) {
		t.Errorf("driver line = %s want %s", buf.String(), want)
	}
}
