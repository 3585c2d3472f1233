// Package sysstat reimplements the slice of the Sysstat utilities the paper
// uses (§2.3): sar-style CPU utilization records and iostat-style device
// I/O records, collected periodically from a monitored host and kept in a
// bounded history that can be rendered as text or persisted to an activity
// file for future inspection.
//
// The collector samples any Target — in this repository, a *cluster.Host —
// on the simulation clock, so all statistics are virtual-time coherent.
package sysstat

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"github.com/hpclab/datagrid/internal/ring"
	"github.com/hpclab/datagrid/internal/simulation"
)

// Target is the monitored machine. cluster.Host satisfies it.
type Target interface {
	// CPULoad returns the busy fraction of the CPU in [0,1].
	CPULoad() float64
	// IOLoad returns the busy fraction of the disk subsystem in [0,1].
	IOLoad() float64
}

// CPURecord is one sar -u style sample. Percentages sum to ~100.
type CPURecord struct {
	At     time.Duration `json:"at"`
	User   float64       `json:"user"`
	System float64       `json:"system"`
	IOWait float64       `json:"iowait"`
	Idle   float64       `json:"idle"`
}

// IORecord is one iostat -d style sample for the host's disk.
type IORecord struct {
	At time.Duration `json:"at"`
	// TPS is transfers (I/O requests) per second.
	TPS float64 `json:"tps"`
	// ReadKBps and WriteKBps are throughput in KiB/s.
	ReadKBps  float64 `json:"read_kbps"`
	WriteKBps float64 `json:"write_kbps"`
	// Util is the %util column: fraction of time the device was busy.
	Util float64 `json:"util"`
}

// Config tunes a Collector.
type Config struct {
	// Period is the sampling interval (sar's "interval" argument).
	Period time.Duration
	// HistorySize bounds the in-memory record history; default 1024.
	HistorySize int
	// DiskPeakTPS scales the synthesized tps column; default 120 (a
	// 2005-era IDE disk's random-op ceiling).
	DiskPeakTPS float64
	// DiskPeakKBps scales the synthesized throughput columns; default
	// 50 MiB/s.
	DiskPeakKBps float64
}

func (c *Config) fillDefaults() error {
	if c.Period <= 0 {
		return fmt.Errorf("sysstat: period must be positive, got %v", c.Period)
	}
	if c.HistorySize == 0 {
		c.HistorySize = 1024
	}
	if c.HistorySize < 0 {
		return fmt.Errorf("sysstat: negative history size %d", c.HistorySize)
	}
	if c.DiskPeakTPS == 0 {
		c.DiskPeakTPS = 120
	}
	if c.DiskPeakKBps == 0 {
		c.DiskPeakKBps = 50 * 1024
	}
	if c.DiskPeakTPS < 0 || c.DiskPeakKBps < 0 {
		return errors.New("sysstat: negative disk peak")
	}
	return nil
}

// Collector periodically samples a Target, the way a sadc/iostat daemon
// samples /proc. It keeps bounded CPU and I/O histories.
type Collector struct {
	host   string
	target Target
	cfg    Config
	rng    *rand.Rand
	ticker *simulation.Ticker

	cpu ring.Buffer[CPURecord]
	io  ring.Buffer[IORecord]
	rev uint64
}

// NewCollector starts sampling target every cfg.Period on the engine.
// host is the label used in rendered reports.
func NewCollector(engine *simulation.Engine, host string, target Target, cfg Config, seed int64) (*Collector, error) {
	if target == nil {
		return nil, errors.New("sysstat: nil target")
	}
	if host == "" {
		return nil, errors.New("sysstat: empty host label")
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	c := &Collector{
		host: host, target: target, cfg: cfg, rng: rand.New(rand.NewSource(seed)),
		cpu: ring.New[CPURecord](cfg.HistorySize), io: ring.New[IORecord](cfg.HistorySize),
	}
	tk, err := engine.NewTicker(cfg.Period, true, c.sample)
	if err != nil {
		return nil, err
	}
	c.ticker = tk
	return c, nil
}

// Host returns the collector's host label.
func (c *Collector) Host() string { return c.host }

// Stop halts sampling; history remains readable.
func (c *Collector) Stop() { c.ticker.Stop() }

// SetPaused suspends (or resumes) sampling without discarding history —
// the fault plane's model of a crashed sadc daemon. While paused the
// revision counter stops moving, so snapshot consumers see the data go
// stale.
func (c *Collector) SetPaused(paused bool) { c.ticker.SetPaused(paused) }

// Paused reports whether sampling is currently suspended.
func (c *Collector) Paused() bool { return c.ticker.Paused() }

// sample synthesizes the full sar/iostat column set from the target's two
// scalar load figures, with small deterministic jitter so the columns look
// like real measurements rather than copies of each other.
func (c *Collector) sample(now time.Duration) {
	cpu := c.target.CPULoad()
	io := c.target.IOLoad()
	jitter := func(base, amp float64) float64 {
		v := base + (c.rng.Float64()*2-1)*amp
		if v < 0 {
			return 0
		}
		return v
	}
	busy := 100 * cpu
	user := jitter(busy*0.72, 1.5)
	system := jitter(busy*0.18, 0.8)
	iowait := jitter(100*io*0.10, 0.5)
	idle := 100 - user - system - iowait
	if idle < 0 {
		idle = 0
	}
	c.cpu.Push(CPURecord{At: now, User: user, System: system, IOWait: iowait, Idle: idle})

	rd := jitter(c.cfg.DiskPeakKBps*io*0.7, c.cfg.DiskPeakKBps*0.01)
	wr := jitter(c.cfg.DiskPeakKBps*io*0.3, c.cfg.DiskPeakKBps*0.01)
	c.io.Push(IORecord{
		At:        now,
		TPS:       jitter(c.cfg.DiskPeakTPS*io, 1),
		ReadKBps:  rd,
		WriteKBps: wr,
		Util:      io,
	})
	c.rev++
}

// Revision increases with every sample taken. The gridstate snapshot
// plane polls it to detect that the idle statistics may have moved.
func (c *Collector) Revision() uint64 { return c.rev }

// CPUHistory returns a copy of the CPU records, oldest first.
func (c *Collector) CPUHistory() []CPURecord { return c.cpu.Slice() }

// IOHistory returns a copy of the I/O records, oldest first.
func (c *Collector) IOHistory() []IORecord { return c.io.Slice() }

// ErrNoSamples is returned when a statistic is requested before any sample
// was taken.
var ErrNoSamples = errors.New("sysstat: no samples collected yet")

// LatestCPU returns the most recent CPU record.
func (c *Collector) LatestCPU() (CPURecord, error) {
	if c.cpu.Len() == 0 {
		return CPURecord{}, ErrNoSamples
	}
	return *c.cpu.At(c.cpu.Len() - 1), nil
}

// LatestIO returns the most recent I/O record.
func (c *Collector) LatestIO() (IORecord, error) {
	if c.io.Len() == 0 {
		return IORecord{}, ErrNoSamples
	}
	return *c.io.At(c.io.Len() - 1), nil
}

// CPUIdlePercent returns the latest idle percentage — the cost model's
// CPU_P(j) input.
func (c *Collector) CPUIdlePercent() (float64, error) {
	r, err := c.LatestCPU()
	if err != nil {
		return 0, err
	}
	return r.Idle, nil
}

// IOIdlePercent returns the latest 100*(1-%util) — the cost model's
// IO_P(j) input.
func (c *Collector) IOIdlePercent() (float64, error) {
	r, err := c.LatestIO()
	if err != nil {
		return 0, err
	}
	return 100 * (1 - r.Util), nil
}

// AverageCPUIdle returns the mean idle percentage over the trailing window.
func (c *Collector) AverageCPUIdle(window time.Duration, now time.Duration) (float64, error) {
	sum, n := 0.0, 0
	for i := c.cpu.Len() - 1; i >= 0; i-- {
		r := c.cpu.At(i)
		if now-r.At > window {
			break
		}
		sum += r.Idle
		n++
	}
	if n == 0 {
		return 0, ErrNoSamples
	}
	return sum / float64(n), nil
}

// RenderSar renders the CPU history like `sar -u`, most recent last,
// limited to the trailing n records (all if n <= 0).
func (c *Collector) RenderSar(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s   (%s)\n", "time", "%user", "%system", "%iowait", "%idle", c.host)
	for i := trailing(c.cpu.Len(), n); i < c.cpu.Len(); i++ {
		r := c.cpu.At(i)
		fmt.Fprintf(&b, "%-12s %8.2f %8.2f %8.2f %8.2f\n",
			fmtClock(r.At), r.User, r.System, r.IOWait, r.Idle)
	}
	return b.String()
}

// RenderIostat renders the I/O history like `iostat -d -x`, most recent
// last, limited to the trailing n records (all if n <= 0).
func (c *Collector) RenderIostat(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %10s %10s %8s   (%s)\n", "time", "tps", "kB_read/s", "kB_wrtn/s", "%util", c.host)
	for i := trailing(c.io.Len(), n); i < c.io.Len(); i++ {
		r := c.io.At(i)
		fmt.Fprintf(&b, "%-12s %8.2f %10.2f %10.2f %8.2f\n",
			fmtClock(r.At), r.TPS, r.ReadKBps, r.WriteKBps, 100*r.Util)
	}
	return b.String()
}

// trailing returns the index of the first of the last n of length records
// (all of them if n <= 0).
func trailing(length, n int) int {
	if n > 0 && length > n {
		return length - n
	}
	return 0
}

func fmtClock(d time.Duration) string {
	h := int(d.Hours())
	m := int(d.Minutes()) % 60
	s := int(d.Seconds()) % 60
	return fmt.Sprintf("%02d:%02d:%02d", h, m, s)
}

// activityLine is the on-disk representation of one history record.
type activityLine struct {
	Kind string     `json:"kind"` // "cpu" or "io"
	Host string     `json:"host"`
	CPU  *CPURecord `json:"cpu,omitempty"`
	IO   *IORecord  `json:"io,omitempty"`
}

// WriteActivityFile persists the full history as JSON lines — the analogue
// of sar's binary daily activity file.
func (c *Collector) WriteActivityFile(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := 0; i < c.cpu.Len(); i++ {
		if err := enc.Encode(activityLine{Kind: "cpu", Host: c.host, CPU: c.cpu.At(i)}); err != nil {
			return fmt.Errorf("sysstat: writing activity file: %w", err)
		}
	}
	for i := 0; i < c.io.Len(); i++ {
		if err := enc.Encode(activityLine{Kind: "io", Host: c.host, IO: c.io.At(i)}); err != nil {
			return fmt.Errorf("sysstat: writing activity file: %w", err)
		}
	}
	return nil
}

// ReadActivityFile loads records previously written by WriteActivityFile.
// It returns the host label and the two histories.
func ReadActivityFile(r io.Reader) (host string, cpu []CPURecord, io []IORecord, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var al activityLine
		if err := json.Unmarshal([]byte(line), &al); err != nil {
			return "", nil, nil, fmt.Errorf("sysstat: corrupt activity file: %w", err)
		}
		if host == "" {
			host = al.Host
		}
		switch al.Kind {
		case "cpu":
			if al.CPU == nil {
				return "", nil, nil, errors.New("sysstat: cpu line without record")
			}
			cpu = append(cpu, *al.CPU)
		case "io":
			if al.IO == nil {
				return "", nil, nil, errors.New("sysstat: io line without record")
			}
			io = append(io, *al.IO)
		default:
			return "", nil, nil, fmt.Errorf("sysstat: unknown record kind %q", al.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return "", nil, nil, fmt.Errorf("sysstat: reading activity file: %w", err)
	}
	return host, cpu, io, nil
}
