package experiments

import (
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/metrics"
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

// Figure3 reproduces Fig. 3 ("FTP versus GridFTP"). Each (size,
// protocol) cell runs in a fresh world with the same seed, so both
// protocols see identical network conditions. The cells are independent
// simulations, so they fan out across the worker pool; results are
// collected in point order and the output is byte-identical at any
// parallelism.
func Figure3(seed int64, workers int) ([]Figure3Row, string, error) {
	type cell struct {
		sizeMB int64
		proto  simxfer.Protocol
	}
	var cells []cell
	for _, sizeMB := range workload.PaperFileSizesMB {
		cells = append(cells, cell{sizeMB, simxfer.ProtoFTP}, cell{sizeMB, simxfer.ProtoGridFTPStream})
	}
	vals, err := sweep(workers, "figure 3", cells, func(c cell) (float64, error) {
		// The cell pins the verbatim base seed (not a derived per-job
		// seed): published numbers rely on every fresh world replaying
		// identical conditions.
		return measureFresh(seed, false, Warmup, "alpha1", "gridhit3", c.sizeMB*workload.MB, simxfer.Options{Protocol: c.proto})
	})
	if err != nil {
		return nil, "", err
	}
	var rows []Figure3Row
	ftp := metrics.Series{Name: "FTP"}
	grid := metrics.Series{Name: "GridFTP"}
	for i, c := range cells {
		if c.proto == simxfer.ProtoFTP {
			rows = append(rows, Figure3Row{SizeMB: c.sizeMB, FTPSeconds: vals[i]})
			ftp.AddPoint(float64(c.sizeMB), vals[i])
		} else {
			rows[len(rows)-1].GridFTPSeconds = vals[i]
			grid.AddPoint(float64(c.sizeMB), vals[i])
		}
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
func Figure4(seed int64, workers int) ([]Figure4Series, string, error) {
	type cell struct {
		streams int
		sizeMB  int64
	}
	var cells []cell
	for _, streams := range workload.PaperStreamCounts {
		for _, sizeMB := range workload.PaperFileSizesMB {
			cells = append(cells, cell{streams, sizeMB})
		}
	}
	vals, err := sweep(workers, "figure 4", cells, func(c cell) (float64, error) {
		return measureFresh(seed, false, Warmup, "alpha2", "lz04", c.sizeMB*workload.MB, simxfer.GridFTPOptions(c.streams))
	})
	if err != nil {
		return nil, "", err
	}
	var out []Figure4Series
	var series []metrics.Series
	for i, c := range cells {
		if len(out) == 0 || out[len(out)-1].Streams != c.streams {
			out = append(out, Figure4Series{Streams: c.streams, SecondsBySizeMB: map[int64]float64{}})
			name := fmt.Sprintf("%d TCP Stream(s)", c.streams)
			if c.streams == 0 {
				name = "no parallel (stream mode)"
			}
			series = append(series, metrics.Series{Name: name})
		}
		out[len(out)-1].SecondsBySizeMB[c.sizeMB] = vals[i]
		series[len(series)-1].AddPoint(float64(c.sizeMB), vals[i])
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
	sel, _, err := env.selectFile("file-a", 1024*workload.MB, fileAAttrs, fileAHosts, nil)
	if err != nil {
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
