package experiments

import (
	"fmt"

	"github.com/hpclab/datagrid/internal/metrics"
	"github.com/hpclab/datagrid/internal/runner"
	"github.com/hpclab/datagrid/internal/simxfer"
	"github.com/hpclab/datagrid/internal/workload"
)

// AutoStreamsResult is one configuration of the adaptive-parallelism
// ablation on one path.
type AutoStreamsResult struct {
	Path    string
	Config  string // "1", "4", "16" or "auto(n)"
	Streams int
	Seconds float64
}

// AblationAutoStreams compares fixed stream counts against the
// measurement-driven recommendation on the paper's two WAN paths. The
// point is not beating the best fixed setting but matching it on *both*
// paths with one policy — no per-path hand tuning.
func AblationAutoStreams(seed int64, opts ...Option) ([]AutoStreamsResult, string, error) {
	const fileSize = 512 * workload.MB
	cfg := buildConfig(opts)
	paths := []struct {
		name     string
		src, dst string
	}{
		{"THU->HIT (100 Mb/s)", "alpha1", "gridhit3"},
		{"THU->LiZen (30 Mb/s, lossy)", "alpha2", "lz04"},
	}
	var jobs []runner.Job[AutoStreamsResult]
	for _, p := range paths {
		measure := func(streams int, label string) (AutoStreamsResult, error) {
			env, err := NewEnv(seed, false)
			if err != nil {
				return AutoStreamsResult{}, err
			}
			res, err := env.MeasureAt(Warmup, p.src, p.dst, fileSize, simxfer.GridFTPOptions(streams))
			if err != nil {
				return AutoStreamsResult{}, err
			}
			return AutoStreamsResult{
				Path: p.name, Config: label, Streams: streams,
				Seconds: seconds(res.Duration()),
			}, nil
		}
		for _, fixed := range []int{1, 4, 16} {
			jobs = append(jobs, runner.Job[AutoStreamsResult]{
				Name: fmt.Sprintf("autostreams/%s->%s/%d", p.src, p.dst, fixed),
				Run: func() (AutoStreamsResult, error) {
					return measure(fixed, fmt.Sprintf("%d", fixed))
				},
			})
		}
		jobs = append(jobs, runner.Job[AutoStreamsResult]{
			Name: fmt.Sprintf("autostreams/%s->%s/auto", p.src, p.dst),
			Run: func() (AutoStreamsResult, error) {
				// The recommendation consults the same world state the
				// fixed runs start from (fresh testbed at warmup).
				env, err := NewEnv(seed, false)
				if err != nil {
					return AutoStreamsResult{}, err
				}
				if err := env.Engine.RunUntil(Warmup); err != nil {
					return AutoStreamsResult{}, err
				}
				auto, err := simxfer.RecommendStreams(env.Testbed.Network(), p.src, p.dst, 0, 0)
				if err != nil {
					return AutoStreamsResult{}, err
				}
				return measure(auto, fmt.Sprintf("auto(%d)", auto))
			},
		})
	}
	out, err := runPoints(cfg, jobs)
	if err != nil {
		return nil, "", err
	}
	tb := metrics.NewTable("Ablation: adaptive parallelism (512 MB, one policy across both WAN paths)",
		"path", "streams", "time (s)")
	for _, r := range out {
		tb.AddRow(r.Path, r.Config, fmt.Sprintf("%.2f", r.Seconds))
	}
	return out, tb.String(), nil
}
