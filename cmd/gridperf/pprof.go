package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profiled runs fn under a CPU profile written to path.
func profiled(path string, fn func() error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	err = fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// stackSample is one block of `go tool pprof -traces`: a CPU time and the
// stack it was sampled on, innermost frame first.
type stackSample struct {
	seconds float64
	frames  []string
}

// cpuShares reads a CPU profile back through `go tool pprof -traces` and
// returns each layer's share of the sampled CPU time. The shares sum to 1.
func cpuShares(profile string) (map[string]float64, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w: %s", profile, err, stderr.String())
	}
	samples, err := parseTraces(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	return attribute(samples), nil
}

// parseTraces parses the text `go tool pprof -traces` prints: a header,
// then blocks divided by dashed lines, each holding a value with its
// innermost frame followed by the calling frames, outermost last.
func parseTraces(r io.Reader) ([]stackSample, error) {
	var samples []stackSample
	var cur *stackSample
	inBlocks := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inBlocks, cur = true, nil
			continue
		}
		fields := strings.Fields(line)
		if !inBlocks || len(fields) == 0 {
			continue
		}
		if cur == nil {
			if len(fields) < 2 {
				continue // a label line, as pprof prints for tagged samples
			}
			sec, err := parseDuration(fields[0])
			if err != nil {
				continue
			}
			samples = append(samples, stackSample{seconds: sec})
			cur = &samples[len(samples)-1]
			fields = fields[1:]
		}
		cur.frames = append(cur.frames, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("pprof -traces output holds no sample")
	}
	return samples, nil
}

// parseDuration reads a pprof time value such as 10ms or 1.52s.
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err
		}
	}
	return 0, fmt.Errorf("no time unit in %q", s)
}

// layerOf names the repo package a frame belongs to, "" for any other. A
// generic instantiation carries its type arguments in brackets; they are
// not where the frame runs.
func layerOf(frame string) string {
	frame, _, _ = strings.Cut(frame, "[")
	rest, ok := strings.CutPrefix(frame, layerPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i]
	}
	return ""
}

// attribute charges every sample to the innermost frame that lies in one of
// the repo's packages, so an allocation or a sort lands on the layer that
// asked for it. Samples of the collector's background workers go to
// runtime.gc_share, and everything else (the harness itself, the scheduler)
// to other_share.
func attribute(samples []stackSample) map[string]float64 {
	shares := make(map[string]float64)
	total := 0.0
	for _, s := range samples {
		total += s.seconds
		key := "other_share"
		for _, f := range s.frames {
			if layer := layerOf(f); layer != "" {
				key = layer + ".cpu_share"
				break
			}
			if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
				key = "runtime.gc_share"
				break
			}
		}
		shares[key] += s.seconds
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares
}
