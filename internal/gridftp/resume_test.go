package gridftp

import (
	"bytes"
	"errors"
	"io"
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

// TestRetrResumable: a read error mid-transfer fails a plain RETR and
// leaves the session usable; a REST + RETR that starts at the bytes
// already received then completes the file byte for byte.
func TestRetrResumable(t *testing.T) {
	mem := NewMemStore()
	payload := bytes.Repeat([]byte("resume-me-"), 100_000) // 1 MB
	if err := mem.Put("/data/big.bin", payload); err != nil {
		t.Fatal(err)
	}
	// Fail once the transfer passes 256 KiB.
	st := &flakyStore{MemStore: mem, failAt: 256 << 10, remaining: 1}
	_, addr, _ := startServer(t, ServerConfig{Store: st})
	c := dialAndLogin(t, addr, ClientConfig{})
	buf := make([]byte, len(payload))
	n, err := c.transfer(nil, "RETR /data/big.bin", byteWriterAt{buf}, nil)
	if err == nil {
		t.Fatal("plain RETR should fail on the hiccup")
	}
	if n == 0 || n >= int64(len(payload)) || !bytes.Equal(buf[:n], payload[:n]) {
		t.Fatalf("failed RETR delivered %d bytes, want a prefix of the file", n)
	}
	if _, err := c.Expect(200, "NOOP"); err != nil {
		t.Fatalf("session after the failed transfer: %v", err)
	}
	if _, err := c.Expect(350, "REST %d", n); err != nil {
		t.Fatal(err)
	}
	m, err := c.transfer(nil, "RETR /data/big.bin", io.NewOffsetWriter(byteWriterAt{buf}, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n+m != int64(len(payload)) || !bytes.Equal(buf, payload) {
		t.Fatalf("resumed transfer = %d+%d bytes, match=%v", n, m, bytes.Equal(buf, payload))
	}
	if st.failures != 1 {
		t.Fatalf("failures = %d, want exactly 1", st.failures)
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
	if _, err := c.Get("/data/hello.txt"); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("/up/x.bin", []byte("12345")); err != nil {
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
	// A user name and a path with spaces in them are one field each.
	c2, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Login("ct yang", "x"); err != nil {
		t.Fatal(err)
	}
	if err := c2.Put("/up/a b.bin", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("xferlog lines = %d:\n%s", len(lines), logBuf.String())
	}
	for _, l := range lines {
		if n := len(strings.Fields(l)); n != 18 {
			t.Fatalf("xferlog line has %d fields, want 18: %s", n, l)
		}
	}
	if sp := lines[2]; !strings.Contains(sp, " /up/a_b.bin ") || !strings.Contains(sp, " i a ct_yang ") {
		t.Fatalf("spaced upload line: %s", sp)
	}
}
