package sysstat

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/hpclab/datagrid/internal/ring"
	"github.com/hpclab/datagrid/internal/simulation"
)

// NetRecord is one `sar -n DEV` style sample of a host's interface.
type NetRecord struct {
	At time.Duration `json:"at"`
	// RxKBps and TxKBps are receive/transmit throughput in KiB/s.
	RxKBps float64 `json:"rx_kbps"`
	TxKBps float64 `json:"tx_kbps"`
}

// NetReader supplies the instantaneous interface rates in bits per second
// (cluster.Testbed.HostNICBps, partially applied, satisfies it).
type NetReader func() (rxBps, txBps float64, err error)

// NetCollector periodically samples a host's network interface — the sar
// network-activity report of the paper's §2.3.
type NetCollector struct {
	host    string
	read    NetReader
	ticker  *simulation.Ticker
	history ring.Buffer[NetRecord]
}

// NewNetCollector starts sampling read() every period.
func NewNetCollector(engine *simulation.Engine, host string, read NetReader, period time.Duration, historySize int) (*NetCollector, error) {
	if engine == nil {
		return nil, errors.New("sysstat: nil engine")
	}
	if host == "" {
		return nil, errors.New("sysstat: empty host label")
	}
	if read == nil {
		return nil, errors.New("sysstat: nil net reader")
	}
	if period <= 0 {
		return nil, fmt.Errorf("sysstat: period must be positive, got %v", period)
	}
	if historySize == 0 {
		historySize = 1024
	}
	if historySize < 0 {
		return nil, fmt.Errorf("sysstat: negative history size %d", historySize)
	}
	c := &NetCollector{host: host, read: read, history: ring.New[NetRecord](historySize)}
	tk, err := engine.NewTicker(period, true, func(now time.Duration) {
		rx, tx, err := c.read()
		if err != nil {
			return
		}
		c.history.Push(NetRecord{At: now, RxKBps: rx / 8 / 1024, TxKBps: tx / 8 / 1024})
	})
	if err != nil {
		return nil, err
	}
	c.ticker = tk
	return c, nil
}

// Stop halts sampling.
func (c *NetCollector) Stop() { c.ticker.Stop() }

// SetPaused suspends (or resumes) sampling without discarding history.
func (c *NetCollector) SetPaused(paused bool) { c.ticker.SetPaused(paused) }

// Paused reports whether sampling is currently suspended.
func (c *NetCollector) Paused() bool { return c.ticker.Paused() }

// History returns a copy of the samples, oldest first.
func (c *NetCollector) History() []NetRecord { return c.history.Slice() }

// Latest returns the most recent sample.
func (c *NetCollector) Latest() (NetRecord, error) {
	if c.history.Len() == 0 {
		return NetRecord{}, ErrNoSamples
	}
	return *c.history.At(c.history.Len() - 1), nil
}

// RenderSarNet renders the history like `sar -n DEV`, limited to the
// trailing n records (all if n <= 0).
func (c *NetCollector) RenderSarNet(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %12s %12s   (%s)\n", "time", "IFACE", "rxkB/s", "txkB/s", c.host)
	for i := trailing(c.history.Len(), n); i < c.history.Len(); i++ {
		r := c.history.At(i)
		fmt.Fprintf(&b, "%-12s %6s %12.2f %12.2f\n", fmtClock(r.At), "eth0", r.RxKBps, r.TxKBps)
	}
	return b.String()
}
