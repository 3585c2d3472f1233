package gridftp

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// countingStore counts the files its store hands out and the closes they
// get; with failClose set every close reports an error.
type countingStore struct {
	Store
	mu            sync.Mutex
	opens, closes int
	failClose     bool
}

func (s *countingStore) Open(path string) (File, error)   { return s.count(s.Store.Open(path)) }
func (s *countingStore) Create(path string) (File, error) { return s.count(s.Store.Create(path)) }

func (s *countingStore) count(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opens++
	return &countedFile{File: f, store: s}, nil
}

// balance returns the opens and closes so far.
func (s *countingStore) balance() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opens, s.closes
}

type countedFile struct {
	File
	store *countingStore
}

func (f *countedFile) Close() error {
	s := f.store
	s.mu.Lock()
	s.closes++
	fail := s.failClose
	s.mu.Unlock()
	if fail {
		return errors.New("simulated close failure")
	}
	return f.File.Close()
}

// TestServerClosesEveryFile: after every transfer command, whether it
// completes or is refused, the server has closed each file it opened. The
// server closes a file before its final reply, so the count is settled
// once the client has read that reply.
func TestServerClosesEveryFile(t *testing.T) {
	mem := NewMemStore()
	payload := bytes.Repeat([]byte("close-me-"), 100_000)
	if err := mem.Put("/data/big.bin", payload); err != nil {
		t.Fatal(err)
	}
	flaky := &flakyStore{MemStore: mem, failAt: 256 << 10}
	st := &countingStore{Store: flaky}
	_, addr, _ := startServer(t, ServerConfig{Store: st, DataTimeout: 50 * time.Millisecond})
	for _, p := range []int{1, 3} {
		c := dialAndLogin(t, addr, ClientConfig{Parallelism: p})
		wantOpens, _ := st.balance()
		step := func(what string, opened int, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("p=%d %s: %v", p, what, err)
			}
			wantOpens += opened
			if opens, closes := st.balance(); opens != wantOpens || closes != opens {
				t.Fatalf("p=%d after %s: %d opens (want %d), %d closes", p, what, opens, wantOpens, closes)
			}
		}
		refused := func(want int, format string, args ...any) error {
			code, msg, err := c.Cmd(format, args...)
			if err == nil && code == 150 {
				code, msg, err = c.readReply()
			}
			if err == nil && code != want {
				err = fmt.Errorf("got %d %s, want %d", code, msg, want)
			}
			return err
		}
		_, err := c.Get("/data/big.bin")
		step("RETR", 1, err)
		_, err = c.GetPartial("/data/big.bin", 1000, 5000)
		step("ERET", 1, err)
		step("STOR", 1, c.Put("/up/x.bin", payload[:70_000]))
		step("550", 0, refused(550, "RETR /missing"))
		step("554", 1, refused(554, "ERET P 0 %d /data/big.bin", len(payload)+1))
		// The PASV listener of the last transfer is still open, but no
		// client dials it: the accept times out.
		step("425", 1, refused(425, "RETR /data/big.bin"))
		flaky.mu.Lock()
		flaky.remaining = 1
		flaky.mu.Unlock()
		if _, err := c.Get("/data/big.bin"); err == nil || !strings.Contains(err.Error(), "426") {
			t.Fatalf("p=%d: RETR over a failing read = %v, want 426", p, err)
		}
		step("426", 1, nil)
		if _, err := c.Expect(200, "NOOP"); err != nil {
			t.Fatalf("p=%d: session after the 426: %v", p, err)
		}
	}
}

// TestStorCloseFailureReplies452: an upload whose file fails to close is
// not stored safely, so STOR answers 452 and never 226, in both modes.
func TestStorCloseFailureReplies452(t *testing.T) {
	st := &countingStore{Store: NewMemStore(), failClose: true}
	_, addr, _ := startServer(t, ServerConfig{Store: st})
	for _, p := range []int{1, 3} {
		c := dialAndLogin(t, addr, ClientConfig{Parallelism: p})
		err := c.Put("/up/x.bin", []byte("12345"))
		if err == nil || !strings.Contains(err.Error(), "452") {
			t.Fatalf("p=%d: STOR with a failing close = %v, want 452", p, err)
		}
	}
}

// TestRestRefusedByERET: ERET names its own offset, so a pending REST
// refuses it with 503 and is used up: the RETR after it sends the whole
// file, not its tail.
func TestRestRefusedByERET(t *testing.T) {
	_, addr, payload := startServer(t, ServerConfig{})
	for _, p := range []int{1, 3} {
		c := dialAndLogin(t, addr, ClientConfig{Parallelism: p})
		if _, err := c.Expect(350, "REST 1000"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.GetPartial("/data/big.bin", 0, 10); err == nil || !strings.Contains(err.Error(), "503") {
			t.Fatalf("p=%d: ERET after REST = %v, want 503", p, err)
		}
		got, err := c.Get("/data/big.bin")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("p=%d: RETR after the refused ERET = %d bytes, want the whole %d", p, len(got), len(payload))
		}
	}
}

// TestRestRefusedByModeESTOR: MODE E blocks carry their own offsets, so a
// pending REST refuses a MODE E STOR with 503, which stores nothing and
// uses the REST up.
func TestRestRefusedByModeESTOR(t *testing.T) {
	srv, addr, _ := startServer(t, ServerConfig{})
	c := dialAndLogin(t, addr, ClientConfig{Parallelism: 2})
	if _, err := c.Expect(350, "REST 5"); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("/up/e.bin", []byte("12345")); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("MODE E STOR after REST = %v, want 503", err)
	}
	if _, err := memStore(srv).Open("/up/e.bin"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("refused STOR created the file: %v", err)
	}
	if err := c.Put("/up/e.bin", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if got, err := memStore(srv).Get("/up/e.bin"); err != nil || string(got) != "12345" {
		t.Fatalf("STOR after the refused one = %q, %v", got, err)
	}
}
