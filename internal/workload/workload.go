// Package workload provides the synthetic workloads the experiment harness
// drives through the system: the paper's file-size and stream-count
// sweeps, and the seeded Poisson arrival core (Arrivals) that clocks
// internal/traffic's per-region client populations and the examples'
// request and compute-job streams.
package workload

// PaperFileSizesMB are the transfer sizes of Figs. 3 and 4.
var PaperFileSizesMB = []int64{256, 512, 1024, 2048}

// PaperStreamCounts are the Fig. 4 series: 0 denotes GridFTP without
// parallel data transfer (stream mode), then 1..16 TCP streams in MODE E.
var PaperStreamCounts = []int{0, 1, 2, 4, 8, 16}

// MB is the paper's megabyte (decimal, as network people count).
const MB = 1_000_000
