package replica

import (
	"errors"
	"fmt"
	"time"
)

// Transfer moves bytes from a source host/path to a destination host/path
// and invokes done exactly once with the outcome. Implementations are
// asynchronous: in simulation, done fires later in virtual time; over real
// GridFTP, when the wire transfer completes. Returning an error means the
// transfer could not even start (done will not be called).
type Transfer func(srcHost, srcPath, dstHost, dstPath string, bytes int64, done func(error)) error

// Clock supplies the current virtual time for registration stamps.
type Clock interface {
	Now() time.Duration
}

// StorageQuota tracks per-host storage consumption so replication cannot
// overfill a disk.
type StorageQuota struct {
	capacity map[string]int64
	used     map[string]int64
}

// NewStorageQuota returns an empty quota tracker. Hosts without a declared
// capacity are treated as unlimited.
func NewStorageQuota() *StorageQuota {
	return &StorageQuota{capacity: make(map[string]int64), used: make(map[string]int64)}
}

// SetCapacity declares a host's storage capacity in bytes.
func (q *StorageQuota) SetCapacity(host string, bytes int64) error {
	if host == "" {
		return errors.New("replica: empty host in quota")
	}
	if bytes <= 0 {
		return fmt.Errorf("replica: capacity must be positive, got %d", bytes)
	}
	q.capacity[host] = bytes
	return nil
}

// Used returns the bytes currently accounted to a host.
func (q *StorageQuota) Used(host string) int64 { return q.used[host] }

// ErrQuotaExceeded is returned when a host cannot fit a new replica.
var ErrQuotaExceeded = errors.New("replica: storage quota exceeded")

func (q *StorageQuota) reserve(host string, bytes int64) error {
	if cap, ok := q.capacity[host]; ok && q.used[host]+bytes > cap {
		return fmt.Errorf("%w: %s needs %d, has %d of %d used",
			ErrQuotaExceeded, host, bytes, q.used[host], cap)
	}
	q.used[host] += bytes
	return nil
}

func (q *StorageQuota) release(host string, bytes int64) {
	q.used[host] -= bytes
	if q.used[host] < 0 {
		q.used[host] = 0
	}
}

// Manager is the replica management service: it creates and deletes
// physical replicas (via a Transfer implementation) and keeps the catalog
// consistent — a replica is registered only after its data safely arrived.
type Manager struct {
	catalog  *Catalog
	transfer Transfer
	clock    Clock
	quota    *StorageQuota

	inFlight map[string]bool // "name|host|path" of replications under way
}

// NewManager wires a manager to a catalog, a transfer mechanism and a
// clock. quota may be nil for unlimited storage.
func NewManager(catalog *Catalog, transfer Transfer, clock Clock, quota *StorageQuota) (*Manager, error) {
	if catalog == nil {
		return nil, errors.New("replica: manager needs a catalog")
	}
	if transfer == nil {
		return nil, errors.New("replica: manager needs a transfer mechanism")
	}
	if clock == nil {
		return nil, errors.New("replica: manager needs a clock")
	}
	if quota == nil {
		quota = NewStorageQuota()
	}
	return &Manager{
		catalog:  catalog,
		transfer: transfer,
		clock:    clock,
		quota:    quota,
		inFlight: make(map[string]bool),
	}, nil
}

// Catalog returns the underlying catalog.
func (m *Manager) Catalog() *Catalog { return m.catalog }

// Publish records an existing file on srcHost as the first (or another)
// replica of a logical file, creating the logical name if needed.
func (m *Manager) Publish(f LogicalFile, host, path string) error {
	if _, err := m.catalog.Logical(f.Name); err != nil {
		if !errors.Is(err, ErrUnknownLogical) {
			return err
		}
		if err := m.catalog.CreateLogical(f); err != nil {
			return err
		}
	}
	if err := m.quota.reserve(host, f.SizeBytes); err != nil {
		return err
	}
	if err := m.catalog.Register(f.Name, Location{Host: host, Path: path, RegisteredAt: m.clock.Now()}); err != nil {
		m.quota.release(host, f.SizeBytes)
		return err
	}
	return nil
}

// ErrReplicationInFlight is returned when the same replica is already being
// created.
var ErrReplicationInFlight = errors.New("replica: replication already in flight")

// Replicate copies the logical file from srcHost to dstHost:dstPath and
// registers the new location once the transfer succeeds. done, if non-nil,
// is invoked with the final outcome.
func (m *Manager) Replicate(name, srcHost, dstHost, dstPath string, done func(error)) error {
	finish := func(err error) {
		if done != nil {
			done(err)
		}
	}
	lf, err := m.catalog.Logical(name)
	if err != nil {
		return err
	}
	locs, err := m.catalog.Locations(name)
	if err != nil {
		return err
	}
	var src *Location
	for i := range locs {
		if locs[i].Host == srcHost {
			src = &locs[i]
			break
		}
	}
	if src == nil {
		return fmt.Errorf("%w: no copy of %q on %q", ErrUnknownReplica, name, srcHost)
	}
	for _, l := range locs {
		if l.Host == dstHost && l.Path == dstPath {
			return fmt.Errorf("%w: %s already holds %q at %s", ErrDuplicate, dstHost, name, dstPath)
		}
	}
	key := name + "|" + dstHost + "|" + dstPath
	if m.inFlight[key] {
		return fmt.Errorf("%w: %s", ErrReplicationInFlight, key)
	}
	if err := m.quota.reserve(dstHost, lf.SizeBytes); err != nil {
		return err
	}
	m.inFlight[key] = true
	err = m.transfer(srcHost, src.Path, dstHost, dstPath, lf.SizeBytes, func(terr error) {
		delete(m.inFlight, key)
		if terr != nil {
			m.quota.release(dstHost, lf.SizeBytes)
			finish(fmt.Errorf("replica: replicating %q to %s: %w", name, dstHost, terr))
			return
		}
		if rerr := m.catalog.Register(name, Location{Host: dstHost, Path: dstPath, RegisteredAt: m.clock.Now()}); rerr != nil {
			m.quota.release(dstHost, lf.SizeBytes)
			finish(rerr)
			return
		}
		finish(nil)
	})
	if err != nil {
		delete(m.inFlight, key)
		m.quota.release(dstHost, lf.SizeBytes)
		return err
	}
	return nil
}

// Delete unregisters a replica and frees its storage accounting. The last
// copy of a logical file cannot be deleted: that would orphan the name.
func (m *Manager) Delete(name, host, path string) error {
	lf, err := m.catalog.Logical(name)
	if err != nil {
		return err
	}
	locs, err := m.catalog.Locations(name)
	if err != nil {
		return err
	}
	if len(locs) == 1 && locs[0].Host == host && locs[0].Path == path {
		return fmt.Errorf("%w: %q", ErrLastReplica, name)
	}
	if err := m.catalog.Unregister(name, host, path); err != nil {
		return err
	}
	m.quota.release(host, lf.SizeBytes)
	return nil
}
