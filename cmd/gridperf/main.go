// Command gridperf is the repository's benchmark: four named workloads,
// each rep in a fresh child process, every metric printed by name with its
// unit, every output checked.
//
//	go run ./cmd/gridperf -seed 42            all four workloads, three reps each
//	go run ./cmd/gridperf -seed 42 -trace     plus one traced run per workload
//	go run ./cmd/gridperf -selfcheck          two sets back to back, compared
//
// The benchmark driver runs one workload at a time, for a length of time
// rather than a number of reps, and reads one JSON object from the last
// line of standard output:
//
//	go run ./cmd/gridperf --workload metro-traffic --seed 7 --seconds 20 --trace 0
//
// See README.md beside this file.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	seed      int64
	workload  string
	reps      int
	seconds   int
	trace     bool
	out       string
	selfcheck bool
	smoke     bool
	child     string
}

// normalizeArgs rewrites the driver's "--trace 0" and "--trace 1" into the
// -trace=false and -trace=true a boolean flag can parse.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+strconv.FormatBool(args[i+1] == "1"))
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("gridperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&o.seed, "seed", 42, "workload seed: the same seed gives the same inputs")
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all four)")
	fs.IntVar(&o.reps, "reps", 3, "untraced reps per workload, each in its own child process")
	fs.IntVar(&o.seconds, "seconds", 0, "driver mode: rep until the timed sections add up to this, then print one JSON object")
	fs.BoolVar(&o.trace, "trace", false, "add one traced run per workload; with -seconds, run only that")
	fs.StringVar(&o.out, "out", ".gridperf", "directory for results.json, trace-<workload>.json and CPU profiles")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run two full sets back to back and compare them against the bounds")
	fs.BoolVar(&o.smoke, "smoke", false, "run every workload at about 1/100 size")
	fs.StringVar(&o.child, "child", "", "internal: run one pass of the named workload in this process")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.reps < 1 || o.seconds < 0 {
		fmt.Fprintf(stderr, "gridperf: bad arguments %v\n", fs.Args())
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "gridperf: %v\n", err)
		return 1
	}
	var err error
	switch {
	case o.child != "":
		err = runChild(o, stdout)
	case o.selfcheck:
		err = runSelfcheck(o, stdout, stderr)
	case o.seconds > 0:
		err = runDriver(o, stdout, stderr)
	default:
		err = runFull(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "gridperf: %v\n", err)
		return 1
	}
	return 0
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// ---- the child: one pass in a fresh process -------------------------------

// meter measures a timed section from inside the process that runs it.
type meter struct {
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`

	t0   time.Time
	cpu0 float64
	mem0 runtime.MemStats
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// start opens the timed section on a collected heap, so that what set-up
// left behind is not charged to it.
func (m *meter) start() {
	runtime.GC()
	runtime.ReadMemStats(&m.mem0)
	m.cpu0 = cpuSeconds()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.WallS = time.Since(m.t0).Seconds()
	m.CPUS = cpuSeconds() - m.cpu0
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.Mallocs = mem.Mallocs - m.mem0.Mallocs
	m.AllocBytes = mem.TotalAlloc - m.mem0.TotalAlloc
}

// childResult is what a child prints as its last line. An untraced child
// fills SetupS and the meter; a traced child fills Layers.
type childResult struct {
	meter
	SetupS  []float64          `json:"setup_s,omitempty"`
	Outcome *outcome           `json:"outcome"`
	Layers  map[string]float64 `json:"layers,omitempty"`
	// PeakRSSMB is the child's ru_maxrss, filled in by the parent.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

func runChild(o options, stdout io.Writer) error {
	def, err := findWorkload(o.child)
	if err != nil {
		return err
	}
	var res *childResult
	if o.trace {
		res, err = traceChild(def, o)
	} else {
		res, err = measureChild(def, o)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// measureChild times the workload's set-up and then its timed section on
// the program's own path. A quick set-up is repeated, up to fifteen times
// or one second, and the child reports the quickest: on a shared host a
// millisecond's work is disturbed more often than not, and only the
// undisturbed sample repeats.
func measureChild(def workloadDef, o options) (*childResult, error) {
	res := &childResult{}
	var w world
	for total := 0.0; len(res.SetupS) < 15 && total < 1; {
		w = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = def.setup(o.seed, o.smoke, nil); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		d := time.Since(t0).Seconds()
		res.SetupS = append(res.SetupS, d)
		total += d
	}
	var err error
	if res.Outcome, err = w.real(&res.meter); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	return res, nil
}

// traceChild makes the three passes of a traced run, each on a freshly
// set-up world: the program's own path under a CPU profile, then the path
// gridperf can put spans around, without and with the recorder on.
func traceChild(def workloadDef, o options) (*childResult, error) {
	var realM, refM, m meter
	setup := func(rec *recorder) (world, error) {
		w, err := def.setup(o.seed, o.smoke, rec)
		if err != nil {
			err = fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		return w, err
	}
	w, err := setup(nil)
	if err != nil {
		return nil, err
	}
	profile := filepath.Join(o.out, "cpu-"+def.name+".prof")
	var realOut *outcome
	err = profiled(profile, func() (err error) {
		realOut, err = w.real(&realM)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: profiled pass: %w", def.name, err)
	}
	shares, err := cpuShares(profile)
	if err != nil {
		return nil, err
	}

	if w, err = setup(nil); err != nil {
		return nil, err
	}
	refOut, err := w.traced(nil, &refM)
	if err != nil {
		return nil, fmt.Errorf("%s: untraced reference pass: %w", def.name, err)
	}

	rec := newRecorder()
	if w, err = setup(rec); err != nil {
		return nil, err
	}
	out, err := w.traced(rec, &m)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", def.name, err)
	}

	totals := rec.totals()
	layers := layerTable(out.Layers, rec, totals, shares)
	for name, v := range realOut.Sim {
		layers["traffic."+name] = v
	}
	layers["replay.requests"] = float64(out.Ops)
	layers["replay.wall_ratio"] = ratio(refM.WallS, realM.WallS)
	layers["trace.overhead_share"] = ratio(m.WallS-refM.WallS, refM.WallS)
	layers["simulation.wall_us_per_event"] = ratio(refM.WallS*1e6, layers["simulation.events_fired"])

	res := &childResult{meter: m, Outcome: realOut, Layers: layers}
	realOut.Failures = append(realOut.Failures, refOut.Failures...)
	realOut.Failures = append(realOut.Failures, out.Failures...)
	// The trace speaks for the program's own path only if it did the same
	// work and the modelled grid behaved the same.
	if out.Ops != realOut.Ops || refOut.Ops != realOut.Ops {
		realOut.failf("trace unrepresentative: traced path ran %d and %d ops, the program's own %d", refOut.Ops, out.Ops, realOut.Ops)
	}
	if want, got := realOut.Sim["sim_p50_s"], out.Sim["sim_p50_s"]; math.Abs(got-want) > 0.05*want {
		realOut.failf("trace unrepresentative: traced sim_p50_s %v, the program's own %v", got, want)
	}
	if sum := cpuShareSum(layers); math.Abs(sum-1) > 0.01 {
		realOut.failf("CPU shares sum to %v, not 1", sum)
	}
	path := filepath.Join(o.out, "trace-"+def.name+".json")
	if err := rec.write(path, def.name, o.seed, totals, layers); err != nil {
		return nil, err
	}
	return res, nil
}

// cpuShareSum adds up the rows that split the profiled CPU time: every
// layer's cpu_share, the collector's background workers and the rest.
func cpuShareSum(layers map[string]float64) float64 {
	sum := layers["runtime.gc_share"] + layers["other_share"]
	for name, v := range layers {
		if strings.HasSuffix(name, ".cpu_share") {
			sum += v
		}
	}
	return sum
}

// layerTable assembles every per-layer metric of a traced run: the
// counters the driver read off the layers, the spans' self times, and the
// CPU shares. A share of a package the table does not list joins
// other_share, so the listed shares still sum to 1.
func layerTable(counters map[string]float64, rec *recorder, totals map[string]spanTotals, shares map[string]float64) map[string]float64 {
	layers := make(map[string]float64, len(layerMetrics))
	for _, d := range layerMetrics {
		layers[d.Name] = 0
	}
	for name, v := range counters {
		layers[name] = v
	}
	for name, t := range totals {
		if metric, ok := spanMetric[name]; ok {
			layers[metric] = t.Self
		}
	}
	if d := sorted(rec.durations("core.rank")); len(d) > 0 {
		layers["core.rank_p50_us"] = percentile(d, 50) * 1e6
		_, v := tailPercentile(d, 99)
		layers["core.rank_p99_us"] = v * 1e6
	}
	for name, v := range shares {
		if _, ok := layers[name]; !ok {
			name = "other_share"
		}
		layers[name] += v
	}
	return layers
}

// ---- the parent: reps, medians, checks ------------------------------------

// spawn runs one pass of a workload in a child process of this binary. The
// caller runs one child at a time.
func spawn(o options, workload string, trace bool, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", workload, "-seed", strconv.FormatInt(o.seed, 10), "-out", o.out,
		"-trace=" + strconv.FormatBool(trace), "-smoke=" + strconv.FormatBool(o.smoke)}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", workload, err)
	}
	res := &childResult{}
	if err := json.Unmarshal(bytes.TrimSpace(text), res); err != nil {
		return nil, fmt.Errorf("child %s: reading its result: %w", workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, nil
}

// workloadResult is one workload's untraced reps reduced to medians, with
// its traced run when one was asked for.
type workloadResult struct {
	Workload string             `json:"workload"`
	Ops      int                `json:"ops"`
	UsPerOp  float64            `json:"us_per_op"`
	Digest   string             `json:"sim_digest"`
	Metrics  map[string]summary `json:"metrics,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	Reps     []*childResult     `json:"reps,omitempty"`
	Trace    *childResult       `json:"trace,omitempty"`
}

// values returns one rep's end-to-end metrics by name.
func (c *childResult) values() map[string]float64 {
	ops := float64(c.Outcome.Ops)
	v := map[string]float64{
		"wall_s":          c.WallS,
		"cpu_s":           c.CPUS,
		"allocs_per_op":   float64(c.Mallocs) / ops,
		"alloc_kb_per_op": float64(c.AllocBytes) / ops / 1024,
		"peak_rss_mb":     c.PeakRSSMB,
		"setup_s":         sorted(c.SetupS)[0],
	}
	for name, x := range c.Outcome.Sim {
		v[name] = x
	}
	return v
}

// measure runs a workload's untraced reps one after another: o.reps of
// them, or in driver mode as many as it takes for the timed sections to add
// up to o.seconds.
func measure(o options, workload string, stderr io.Writer) (*workloadResult, error) {
	res := &workloadResult{Workload: workload, Metrics: make(map[string]summary)}
	samples := make(map[string][]float64)
	timed := 0.0
	for rep := 0; o.seconds > 0 && timed < float64(o.seconds) || o.seconds == 0 && rep < o.reps; rep++ {
		c, err := spawn(o, workload, false, stderr)
		if err != nil {
			return nil, err
		}
		res.Reps = append(res.Reps, c)
		timed += c.WallS
		for name, v := range c.values() {
			samples[name] = append(samples[name], v)
		}
		res.Failures = append(res.Failures, c.Outcome.Failures...)
		if rep == 0 {
			res.Ops, res.Digest = c.Outcome.Ops, c.Outcome.Digest
		} else if c.Outcome.Digest != res.Digest {
			res.Failures = append(res.Failures, fmt.Sprintf("rep %d: sim_digest %s differs from rep 0's %s", rep, c.Outcome.Digest, res.Digest))
		}
	}
	for name, xs := range samples {
		res.Metrics[name] = summarize(xs)
	}
	res.UsPerOp = res.Metrics["wall_s"].Median / float64(res.Ops) * 1e6
	return res, nil
}

// runTrace runs a workload's traced run and folds it into res.
func runTrace(o options, res *workloadResult, stderr io.Writer) error {
	c, err := spawn(o, res.Workload, true, stderr)
	if err != nil {
		return err
	}
	res.Trace = c
	res.Failures = append(res.Failures, c.Outcome.Failures...)
	if res.Digest == "" {
		res.Ops, res.Digest = c.Outcome.Ops, c.Outcome.Digest
	} else if c.Outcome.Digest != res.Digest {
		res.Failures = append(res.Failures, fmt.Sprintf("traced run: sim_digest %s differs from the untraced %s", c.Outcome.Digest, res.Digest))
	}
	return nil
}

func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "%s  ops %d  us_per_op %.3f  sim_digest %s\n", r.Workload, r.Ops, r.UsPerOp, r.Digest)
	for _, d := range endToEnd {
		s, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-18s %14.6g %-5s [%.6g .. %.6g, n=%d]  %s is better, bound %g %%\n",
			d.Name, s.Median, d.Unit, s.Min, s.Max, s.N, d.Better, 100*d.Bound)
	}
	if r.Trace != nil {
		for _, d := range layerMetrics {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, r.Trace.Layers[d.Name], d.Unit)
		}
		fmt.Fprintf(w, "  %-36s %14.6g\n", "sum of CPU shares", cpuShareSum(r.Trace.Layers))
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// ---- modes ----------------------------------------------------------------

// environment is what every results file says about where it was measured.
type environment struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"commit"`
	Shards     int    `json:"shards"`
}

func describeEnvironment() environment {
	env := environment{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       "100 (default)",
		Commit:     "unknown",
		Shards:     1,
	}
	if v := os.Getenv("GOGC"); v != "" {
		env.GOGC = v
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// resultsFile is results.json. No run of gridperf claims a gain: it is the
// measure, and Claim stays null.
type resultsFile struct {
	Environment environment       `json:"environment"`
	Seed        int64             `json:"seed"`
	Smoke       bool              `json:"smoke"`
	Claim       *string           `json:"claim"`
	Workloads   []*workloadResult `json:"workloads"`
}

func selected(o options) ([]string, error) {
	if o.workload != "" {
		_, err := findWorkload(o.workload)
		return []string{o.workload}, err
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names, nil
}

// runSet measures every selected workload once, printing each as it ends.
func runSet(o options, stdout, stderr io.Writer) ([]*workloadResult, error) {
	names, err := selected(o)
	if err != nil {
		return nil, err
	}
	var set []*workloadResult
	for _, name := range names {
		res, err := measure(o, name, stderr)
		if err != nil {
			return nil, err
		}
		if o.trace {
			if err := runTrace(o, res, stderr); err != nil {
				return nil, err
			}
		}
		res.print(stdout)
		set = append(set, res)
	}
	return set, nil
}

func failures(set []*workloadResult) error {
	n := 0
	for _, r := range set {
		n += len(r.Failures)
	}
	if n > 0 {
		return fmt.Errorf("%d output checks failed", n)
	}
	return nil
}

func runFull(o options, stdout, stderr io.Writer) error {
	env := describeEnvironment()
	fmt.Fprintf(stdout, "gridperf  seed %d  %s  nproc %d  GOMAXPROCS %d  GOGC %s  shards %d  commit %s\n",
		o.seed, env.GoVersion, env.NumCPU, env.GOMAXPROCS, env.GOGC, env.Shards, env.Commit)
	set, err := runSet(o, stdout, stderr)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(resultsFile{Environment: env, Seed: o.seed, Smoke: o.smoke, Workloads: set}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, "results.json"), data, 0o644); err != nil {
		return err
	}
	return failures(set)
}

// driverLine is the one JSON object the benchmark driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDriver measures one workload for o.seconds and prints the driver's
// JSON object as the last line: the end-to-end metrics of the untraced
// reps, or with -trace the per-layer metrics of one traced run.
func runDriver(o options, stdout, stderr io.Writer) error {
	if _, err := findWorkload(o.workload); err != nil {
		return err
	}
	line := driverLine{Metrics: make(map[string]driverValue)}
	var res *workloadResult
	if o.trace {
		res = &workloadResult{Workload: o.workload}
		if err := runTrace(o, res, stderr); err != nil {
			return err
		}
		line.Attempted = res.Ops
		for _, d := range layerMetrics {
			line.Metrics[d.Name] = driverValue{res.Trace.Layers[d.Name], d.Unit}
		}
	} else {
		var err error
		if res, err = measure(o, o.workload, stderr); err != nil {
			return err
		}
		line.Attempted = res.Ops * len(res.Reps)
		for _, d := range hostMetrics {
			line.Metrics[d.Name] = driverValue{res.Metrics[d.Name].Median, d.Unit}
		}
	}
	res.print(stderr)
	line.Failed = len(res.Failures)
	line.Correct = line.Failed == 0
	return json.NewEncoder(stdout).Encode(line)
}

// runSelfcheck measures two full sets of the same code back to back and
// compares their medians. A pair further apart than the metric's bound is
// printed as unresolved: the benchmark could not tell that difference from a
// change. A metric that must repeat exactly and does not fails the check.
func runSelfcheck(o options, stdout, stderr io.Writer) error {
	var sets [2][]*workloadResult
	for i := range sets {
		fmt.Fprintf(stdout, "set %d\n", i+1)
		var err error
		if sets[i], err = runSet(o, stdout, stderr); err != nil {
			return err
		}
		if err := failures(sets[i]); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "\n%-16s %-18s %14s %14s %9s  %s\n", "workload", "metric", "set 1", "set 2", "apart", "verdict")
	unresolved, inexact := 0, 0
	for i, a := range sets[0] {
		b := sets[1][i]
		if a.Digest != b.Digest {
			inexact++
			fmt.Fprintf(stdout, "%-16s %-18s %14s %14s %9s  DIFFERS\n", a.Workload, "sim_digest", a.Digest, b.Digest, "")
		}
		for _, d := range endToEnd {
			x, ok := a.Metrics[d.Name]
			if !ok {
				continue
			}
			y := b.Metrics[d.Name]
			apart := math.Abs(y.Median - x.Median)
			verdict := "agree"
			switch {
			case d.Bound == 0 && apart != 0:
				inexact++
				verdict = "DIFFERS"
			case d.Name == "setup_s" && apart <= 0.25:
				// A quick set-up is allowed a quarter of a second.
			case apart > d.Bound*x.Median:
				unresolved++
				verdict = "unresolved"
			}
			fmt.Fprintf(stdout, "%-16s %-18s %14.6g %14.6g %8.2f%%  %s\n",
				a.Workload, d.Name, x.Median, y.Median, 100*ratio(apart, x.Median), verdict)
		}
	}
	fmt.Fprintf(stdout, "\n%d unresolved, %d exact metrics differ\n", unresolved, inexact)
	if inexact > 0 {
		return errors.New("selfcheck: a metric that must repeat exactly did not")
	}
	return nil
}
