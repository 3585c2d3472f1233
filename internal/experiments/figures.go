package experiments

import (
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/metrics"
	"github.com/hpclab/datagrid/internal/runner"
	"github.com/hpclab/datagrid/internal/simxfer"
	"github.com/hpclab/datagrid/internal/workload"
)

// Figure3Row is one file-size column of Fig. 3: FTP vs GridFTP transfer
// time from THU alpha1 to HIT gridhit3.
type Figure3Row struct {
	SizeMB         int64
	FTPSeconds     float64
	GridFTPSeconds float64
}

// Figure3 reproduces Fig. 3 ("FTP versus GridFTP"). Each (protocol, size)
// cell runs in a fresh world with the same seed, so both protocols see
// identical network conditions. The cells are independent simulations,
// so they fan out across the worker pool; results are collected in
// submission order and the output is byte-identical at any parallelism.
func Figure3(seed int64, opts ...Option) ([]Figure3Row, string, error) {
	cfg := buildConfig(opts)
	protos := []simxfer.Protocol{simxfer.ProtoFTP, simxfer.ProtoGridFTPStream}
	var jobs []runner.Job[float64]
	for _, sizeMB := range workload.PaperFileSizesMB {
		for _, proto := range protos {
			jobs = append(jobs, runner.Job[float64]{
				Name: fmt.Sprintf("fig3/%dMB/%v", sizeMB, proto),
				Run: func() (float64, error) {
					// The point pins the verbatim base seed (not the
					// derived per-job seed): published numbers rely on
					// every fresh world replaying identical conditions.
					env, err := NewEnv(seed, false)
					if err != nil {
						return 0, err
					}
					res, err := env.MeasureAt(Warmup, "alpha1", "gridhit3", sizeMB*workload.MB, simxfer.Options{Protocol: proto})
					if err != nil {
						return 0, err
					}
					return seconds(res.Duration()), nil
				},
			})
		}
	}
	vals, err := runPoints(cfg, jobs)
	if err != nil {
		return nil, "", err
	}
	rows := make([]Figure3Row, 0, len(workload.PaperFileSizesMB))
	for i, sizeMB := range workload.PaperFileSizesMB {
		rows = append(rows, Figure3Row{
			SizeMB:         sizeMB,
			FTPSeconds:     vals[i*len(protos)],
			GridFTPSeconds: vals[i*len(protos)+1],
		})
	}
	ftp := metrics.Series{Name: "FTP"}
	grid := metrics.Series{Name: "GridFTP"}
	for _, r := range rows {
		ftp.AddPoint(float64(r.SizeMB), r.FTPSeconds)
		grid.AddPoint(float64(r.SizeMB), r.GridFTPSeconds)
	}
	rendered, err := metrics.RenderSeries(
		"Figure 3: FTP versus GridFTP (THU alpha1 -> HIT gridhit3)",
		"File Sizes (MB)", "Transfer Time (sec)",
		[]metrics.Series{ftp, grid})
	if err != nil {
		return nil, "", err
	}
	return rows, rendered, nil
}

// Figure4Series is one stream-count line of Fig. 4.
type Figure4Series struct {
	// Streams is the TCP stream count; 0 is GridFTP without parallel
	// data transfer (stream mode).
	Streams int
	// SecondsBySizeMB maps file size to transfer time.
	SecondsBySizeMB map[int64]float64
}

// Figure4 reproduces Fig. 4 ("GridFTP with parallel data transfer"):
// transfer times from THU alpha2 to Li-Zen lz04 for stream mode and 1, 2,
// 4, 8, 16 parallel TCP streams across the paper's file sizes.
func Figure4(seed int64, opts ...Option) ([]Figure4Series, string, error) {
	cfg := buildConfig(opts)
	var jobs []runner.Job[float64]
	for _, streams := range workload.PaperStreamCounts {
		for _, sizeMB := range workload.PaperFileSizesMB {
			jobs = append(jobs, runner.Job[float64]{
				Name: fmt.Sprintf("fig4/streams=%d/%dMB", streams, sizeMB),
				Run: func() (float64, error) {
					env, err := NewEnv(seed, false)
					if err != nil {
						return 0, err
					}
					res, err := env.MeasureAt(Warmup, "alpha2", "lz04", sizeMB*workload.MB, simxfer.GridFTPOptions(streams))
					if err != nil {
						return 0, err
					}
					return seconds(res.Duration()), nil
				},
			})
		}
	}
	vals, err := runPoints(cfg, jobs)
	if err != nil {
		return nil, "", err
	}
	out := make([]Figure4Series, 0, len(workload.PaperStreamCounts))
	for si, streams := range workload.PaperStreamCounts {
		s := Figure4Series{Streams: streams, SecondsBySizeMB: map[int64]float64{}}
		for zi, sizeMB := range workload.PaperFileSizesMB {
			s.SecondsBySizeMB[sizeMB] = vals[si*len(workload.PaperFileSizesMB)+zi]
		}
		out = append(out, s)
	}
	series := make([]metrics.Series, 0, len(out))
	for _, s := range out {
		name := fmt.Sprintf("%d TCP Stream(s)", s.Streams)
		if s.Streams == 0 {
			name = "no parallel (stream mode)"
		}
		ms := metrics.Series{Name: name}
		for _, sizeMB := range workload.PaperFileSizesMB {
			ms.AddPoint(float64(sizeMB), s.SecondsBySizeMB[sizeMB])
		}
		series = append(series, ms)
	}
	rendered, err := metrics.RenderSeries(
		"Figure 4: GridFTP with parallel data transfer (THU alpha2 -> Li-Zen lz04)",
		"File Sizes (MB)", "Transfer Time (sec)",
		series)
	if err != nil {
		return nil, "", err
	}
	return out, rendered, nil
}

// CostPoint is one sample of a candidate's cost-model score over time —
// the data behind the Fig. 5 cost display.
type CostPoint struct {
	At    time.Duration
	Host  string
	Score float64
	// Epoch is the grid-state snapshot epoch the score was taken from, so
	// consumers can tell which samples share one monitoring view.
	Epoch uint64
}

// CostSeries runs the monitored testbed and samples every candidate's
// cost-model score each period for the given span (after warmup). It is
// the data source for cmd/replicacost, the Fig. 5 analogue.
func CostSeries(seed int64, span, period time.Duration) ([]CostPoint, error) {
	if span <= 0 || period <= 0 {
		return nil, fmt.Errorf("experiments: span and period must be positive, got %v, %v", span, period)
	}
	env, err := NewEnv(seed, true)
	if err != nil {
		return nil, err
	}
	cat, err := buildCatalog(1024 * workload.MB)
	if err != nil {
		return nil, err
	}
	sel, err := env.selectionFor(cat, paperWeights(), nil)
	if err != nil {
		return nil, err
	}
	if err := env.Engine.RunUntil(Warmup); err != nil {
		return nil, err
	}
	var points []CostPoint
	for at := Warmup; at <= Warmup+span; at += period {
		if err := env.Engine.RunUntil(at); err != nil {
			return nil, err
		}
		// Each sampling instant pins one snapshot view; all candidates in
		// the row score against the same epoch.
		view := sel.PinView(env.Engine.Now())
		cands, err := view.Rank("file-a")
		if err != nil {
			return nil, err
		}
		for _, c := range cands {
			points = append(points, CostPoint{At: at - Warmup, Host: c.Location.Host, Score: c.Score, Epoch: view.Epoch()})
		}
	}
	return points, nil
}
