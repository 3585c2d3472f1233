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

// figure3Columns are Fig. 3's columns; its text is the series plot.
var figure3Columns = columns[Figure3Row]{
	key: func(r Figure3Row) string { return fmt.Sprintf("fig3/%dMB", r.SizeMB) },
	cols: []column[Figure3Row]{
		{"", "", "size_mb", "%d", false, func(r Figure3Row) any { return r.SizeMB }},
		{"", "", "ftp_sec", "%.3f", true, func(r Figure3Row) any { return r.FTPSeconds }},
		{"", "", "gridftp_sec", "%.3f", true, func(r Figure3Row) any { return r.GridFTPSeconds }},
	},
}

// Figure4Point is one (stream count, file size) point of Fig. 4.
type Figure4Point struct {
	// Streams is the TCP stream count; 0 is GridFTP without parallel
	// data transfer (stream mode).
	Streams int
	SizeMB  int64
	// Seconds is the transfer time.
	Seconds float64
}

// Figure4 reproduces Fig. 4 ("GridFTP with parallel data transfer"):
// transfer times from THU alpha2 to Li-Zen lz04 for stream mode and 1, 2,
// 4, 8, 16 parallel TCP streams across the paper's file sizes. The points
// come stream count by stream count, each in the paper's size order.
func Figure4(seed int64, workers int) ([]Figure4Point, string, error) {
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
	out := make([]Figure4Point, len(cells))
	var series []metrics.Series
	for i, c := range cells {
		out[i] = Figure4Point{c.streams, c.sizeMB, vals[i]}
		if i == 0 || cells[i-1].streams != c.streams {
			name := fmt.Sprintf("%d TCP Stream(s)", c.streams)
			if c.streams == 0 {
				name = "no parallel (stream mode)"
			}
			series = append(series, metrics.Series{Name: name})
		}
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

// figure4Columns are Fig. 4's CSV columns; its text is the series plot.
// Its metrics are named per point (figure4Metrics), not per column.
var figure4Columns = columns[Figure4Point]{cols: []column[Figure4Point]{
	{"", "", "streams", "%d", false, func(p Figure4Point) any { return p.Streams }},
	{"", "", "size_mb", "%d", false, func(p Figure4Point) any { return p.SizeMB }},
	{"", "", "sec", "%.3f", false, func(p Figure4Point) any { return p.Seconds }},
}}

// figure4Metrics names each point's time fig4/streams=S/<size>MB_sec.
func figure4Metrics(points []Figure4Point) []Metric {
	ms := make([]Metric, len(points))
	for i, p := range points {
		ms[i] = Metric{fmt.Sprintf("fig4/streams=%d/%dMB_sec", p.Streams, p.SizeMB), p.Seconds}
	}
	return ms
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
