package experiments

import (
	"fmt"

	"github.com/hpclab/datagrid/internal/metrics"
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
func AblationAutoStreams(seed int64, workers int) ([]AutoStreamsResult, string, error) {
	const fileSize = 512 * workload.MB
	// streams 0 stands for the recommendation.
	type point struct {
		path, src, dst string
		streams        int
	}
	var points []point
	for _, p := range []point{
		{path: "THU->HIT (100 Mb/s)", src: "alpha1", dst: "gridhit3"},
		{path: "THU->LiZen (30 Mb/s, lossy)", src: "alpha2", dst: "lz04"},
	} {
		for _, streams := range []int{1, 4, 16, 0} {
			p.streams = streams
			points = append(points, p)
		}
	}
	out, err := sweep(workers, "adaptive parallelism ablation", points, func(p point) (AutoStreamsResult, error) {
		r := AutoStreamsResult{Path: p.path, Config: fmt.Sprintf("%d", p.streams), Streams: p.streams}
		env, err := NewEnv(seed, false)
		if err != nil {
			return r, err
		}
		if p.streams == 0 {
			// The recommendation reads the world at warmup, where the
			// fixed runs start; reading route and link state draws no
			// random number and schedules nothing, so the transfer it
			// recommends runs in that same world.
			if err := env.Engine.RunUntil(Warmup); err != nil {
				return r, err
			}
			if r.Streams, err = simxfer.RecommendStreams(env.Testbed.Network(), p.src, p.dst, 0, 0); err != nil {
				return r, err
			}
			r.Config = fmt.Sprintf("auto(%d)", r.Streams)
		}
		res, err := env.MeasureAt(Warmup, p.src, p.dst, fileSize, simxfer.GridFTPOptions(r.Streams))
		r.Seconds = res.Duration().Seconds()
		return r, err
	})
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
