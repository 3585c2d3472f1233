package coalloc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/hpclab/datagrid/internal/gridftp"
)

// memSource serves ranges from an in-memory payload, optionally slowly or
// failing after N chunks.
type memSource struct {
	name      string
	data      []byte
	delay     time.Duration
	failAfter int // fail on the (failAfter+1)-th call; -1 = never

	mu    sync.Mutex
	calls int
}

func (m *memSource) Name() string { return m.name }

func (m *memSource) FetchRange(path string, off, length int64) ([]byte, error) {
	m.mu.Lock()
	m.calls++
	calls := m.calls
	m.mu.Unlock()
	if m.failAfter >= 0 && calls > m.failAfter {
		return nil, errors.New("source died")
	}
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	if off < 0 || off+length > int64(len(m.data)) {
		return nil, errors.New("range out of bounds")
	}
	return m.data[off : off+length], nil
}

func payload(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestFetchSingleSource(t *testing.T) {
	data := payload(1<<20, 1)
	src := &memSource{name: "a", data: data, failAfter: -1}
	got, stats, err := Fetch([]Source{src}, "/f", int64(len(data)), Options{ChunkBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch")
	}
	if stats.BytesBySource["a"] != int64(len(data)) {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.ChunksBySource["a"] != 16 {
		t.Fatalf("chunks = %d, want 16", stats.ChunksBySource["a"])
	}
}

func TestFetchBalancesTowardFastSource(t *testing.T) {
	data := payload(1<<20, 2)
	fast := &memSource{name: "fast", data: data, failAfter: -1}
	slow := &memSource{name: "slow", data: data, delay: 20 * time.Millisecond, failAfter: -1}
	got, stats, err := Fetch([]Source{fast, slow}, "/f", int64(len(data)), Options{ChunkBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch")
	}
	if stats.ChunksBySource["fast"] <= stats.ChunksBySource["slow"] {
		t.Fatalf("dynamic scheduling should favor the fast source: %+v", stats.ChunksBySource)
	}
}

func TestFetchSurvivesSourceFailure(t *testing.T) {
	data := payload(512<<10, 3)
	// The good source is slightly slow so the scheduler provably hands the
	// flaky one at least one chunk before the queue drains.
	good := &memSource{name: "good", data: data, delay: time.Millisecond, failAfter: -1}
	flaky := &memSource{name: "flaky", data: data, failAfter: 0}
	got, stats, err := Fetch([]Source{good, flaky}, "/f", int64(len(data)), Options{ChunkBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch despite failover")
	}
	if len(stats.Failed) != 1 || stats.Failed[0] != "flaky" {
		t.Fatalf("failed = %v", stats.Failed)
	}
}

func TestFetchAllSourcesDead(t *testing.T) {
	data := payload(256<<10, 4)
	d1 := &memSource{name: "d1", data: data, failAfter: 0}
	d2 := &memSource{name: "d2", data: data, failAfter: 1}
	_, stats, err := Fetch([]Source{d1, d2}, "/f", int64(len(data)), Options{ChunkBytes: 32 << 10})
	if err == nil {
		t.Fatal("all-dead fetch should fail")
	}
	if len(stats.Failed) != 2 {
		t.Fatalf("failed = %v", stats.Failed)
	}
}

func TestFetchValidation(t *testing.T) {
	src := &memSource{name: "a", data: nil, failAfter: -1}
	if _, _, err := Fetch(nil, "/f", 1, Options{}); err == nil {
		t.Fatal("no sources should be rejected")
	}
	if _, _, err := Fetch([]Source{src}, "/f", -1, Options{}); err == nil {
		t.Fatal("negative size should be rejected")
	}
	if _, _, err := Fetch([]Source{src}, "/f", 1, Options{ChunkBytes: -1}); err == nil {
		t.Fatal("negative chunk should be rejected")
	}
	if _, _, err := Fetch([]Source{nil}, "/f", 1, Options{}); err == nil {
		t.Fatal("nil source should be rejected")
	}
	if _, _, err := Fetch([]Source{src, &memSource{name: "a"}}, "/f", 1, Options{}); err == nil {
		t.Fatal("duplicate source names should be rejected")
	}
	// Zero-size fetch is trivially complete.
	got, _, err := Fetch([]Source{src}, "/f", 0, Options{})
	if err != nil || len(got) != 0 {
		t.Fatalf("zero fetch = %v, %v", got, err)
	}
}

// TestFetchOverRealGridFTP co-allocates from two real loopback GridFTP
// servers holding the same replica.
func TestFetchOverRealGridFTP(t *testing.T) {
	data := payload(3<<20, 5)
	var sources []Source
	for i := 0; i < 2; i++ {
		store := gridftp.NewMemStore()
		if err := store.Put("/data/replica.bin", data); err != nil {
			t.Fatal(err)
		}
		srv, err := gridftp.NewServer(gridftp.ServerConfig{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := gridftp.Dial(addr, gridftp.ClientConfig{Parallelism: 2, Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.Login("u", "p"); err != nil {
			t.Fatal(err)
		}
		if err := c.Setup(); err != nil {
			t.Fatal(err)
		}
		s, err := NewGridFTPSource(fmt.Sprintf("server%d", i), c)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, s)
	}
	got, stats, err := Fetch(sources, "/data/replica.bin", int64(len(data)), Options{ChunkBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("co-allocated download corrupted")
	}
	if stats.ChunksBySource["server0"] == 0 || stats.ChunksBySource["server1"] == 0 {
		t.Fatalf("both servers should contribute: %+v", stats.ChunksBySource)
	}
}

func TestGridFTPSourceValidation(t *testing.T) {
	if _, err := NewGridFTPSource("", nil); err == nil {
		t.Fatal("empty label should be rejected")
	}
	if _, err := NewGridFTPSource("x", nil); err == nil {
		t.Fatal("nil client should be rejected")
	}
}

// Property: any payload, chunk size and source count reassembles exactly
// and accounts every byte.
func TestPropertyFetchReassembles(t *testing.T) {
	f := func(seed int64, sizeRaw uint16, chunkRaw uint8, nsrcRaw uint8) bool {
		size := int(sizeRaw)%100000 + 1
		chunk := int64(chunkRaw)%8000 + 100
		nsrc := int(nsrcRaw)%4 + 1
		data := payload(size, seed)
		var sources []Source
		for i := 0; i < nsrc; i++ {
			sources = append(sources, &memSource{name: fmt.Sprintf("s%d", i), data: data, failAfter: -1})
		}
		got, stats, err := Fetch(sources, "/f", int64(size), Options{ChunkBytes: chunk})
		if err != nil || !bytes.Equal(got, data) {
			return false
		}
		var total int64
		for _, b := range stats.BytesBySource {
			total += b
		}
		return total == int64(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
