package gridftp

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// flakyStore wraps a MemStore so reads past a threshold fail a limited
// number of times — a disk hiccup mid-transfer.
type flakyStore struct {
	*MemStore
	mu        sync.Mutex
	failAt    int64
	failures  int
	remaining int
}

func (s *flakyStore) Open(path string) (File, error) {
	f, err := s.MemStore.Open(path)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: f, store: s}, nil
}

type flakyFile struct {
	File
	store *flakyStore
}

func (f *flakyFile) ReadAt(p []byte, off int64) (int, error) {
	s := f.store
	s.mu.Lock()
	shouldFail := s.remaining > 0 && off >= s.failAt
	if shouldFail {
		s.remaining--
		s.failures++
	}
	s.mu.Unlock()
	if shouldFail {
		return 0, errors.New("simulated disk hiccup")
	}
	return f.File.ReadAt(p, off)
}

func TestRetrResumable(t *testing.T) {
	mem := NewMemStore()
	payload := bytes.Repeat([]byte("resume-me-"), 100_000) // 1 MB
	if err := mem.Put("/data/big.bin", payload); err != nil {
		t.Fatal(err)
	}
	// Fail twice once the transfer passes 256 KiB.
	st := &flakyStore{MemStore: mem, failAt: 256 << 10, remaining: 2}
	srv, err := NewServer(ServerConfig{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Login("u", "p"); err != nil {
		t.Fatal(err)
	}
	if err := c.TypeImage(); err != nil {
		t.Fatal(err)
	}
	// Plain Retr fails on the hiccup...
	var junk bytes.Buffer
	if _, err := c.Retr("/data/big.bin", &junk); err == nil {
		t.Fatal("plain Retr should fail on the first hiccup")
	}
	// ...but the resumable variant rides through both failures.
	var buf bytes.Buffer
	n, err := c.RetrResumable("/data/big.bin", &buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) || !bytes.Equal(buf.Bytes(), payload) {
		t.Fatalf("resumable transfer = %d bytes, match=%v", n, bytes.Equal(buf.Bytes(), payload))
	}
	if st.failures != 2 {
		t.Fatalf("failures = %d, want exactly 2 (one per hiccup)", st.failures)
	}
}

func TestRetrResumableGivesUp(t *testing.T) {
	mem := NewMemStore()
	if err := mem.Put("/f", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	// Fails forever from byte zero: no progress is ever possible.
	st := &flakyStore{MemStore: mem, failAt: 0, remaining: 1 << 30}
	srv, err := NewServer(ServerConfig{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Login("u", "p"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.RetrResumable("/f", &buf, 2); err == nil {
		t.Fatal("hopeless transfer should give up")
	}
	if _, err := c.RetrResumable("/f", &buf, -1); err == nil {
		t.Fatal("negative retry budget should be rejected")
	}
}

func TestXferlog(t *testing.T) {
	var logBuf bytes.Buffer
	fixed := time.Date(2005, 7, 4, 12, 0, 0, 0, time.UTC)
	st := NewMemStore()
	if err := st.Put("/data/hello.txt", []byte("hello, grid")); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Store:       st,
		TransferLog: &logBuf,
		Clock:       func() time.Time { return fixed },
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Login("ctyang", "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.TypeImage(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.Retr("/data/hello.txt", &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stor("/up/x.bin", strings.NewReader("12345")); err != nil {
		t.Fatal(err)
	}
	// Give the async session goroutine a moment to flush... writes happen
	// synchronously in the handler before 226, so the log is complete as
	// soon as the client saw both 226s.
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("xferlog lines = %d:\n%s", len(lines), logBuf.String())
	}
	// wu-ftpd field shape: date(5 fields) dur host bytes path b _ dir a user ...
	dl := lines[0]
	for _, want := range []string{"Mon Jul  4 12:00:00 2005", "127.0.0.1", "11", "/data/hello.txt", " o a ctyang "} {
		if !strings.Contains(dl, want) {
			t.Fatalf("download line missing %q: %s", want, dl)
		}
	}
	ul := lines[1]
	for _, want := range []string{"5", "/up/x.bin", " i a ctyang "} {
		if !strings.Contains(ul, want) {
			t.Fatalf("upload line missing %q: %s", want, ul)
		}
	}
}
