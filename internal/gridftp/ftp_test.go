package gridftp

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"testing/quick"
)

// startHello starts a server whose store holds only /data/hello.txt.
func startHello(t *testing.T) (*MemStore, string) {
	t.Helper()
	st := NewMemStore()
	if err := st.Put("/data/hello.txt", []byte("hello, grid")); err != nil {
		t.Fatal(err)
	}
	_, addr, _ := startServer(t, ServerConfig{Store: st})
	return st, addr
}

func TestMemStore(t *testing.T) {
	st := NewMemStore()
	if err := st.Put("/a/b.bin", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("/a/b.bin")
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Get = %v, %v", got, err)
	}
	// Paths are normalized to a leading slash.
	got, err = st.Get("a/b.bin")
	if err != nil || len(got) != 3 {
		t.Fatalf("normalized Get = %v, %v", got, err)
	}
	if _, err := st.Open("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Open missing err = %v", err)
	}
	if _, err := st.Open("/../etc/passwd"); err == nil {
		t.Fatal("path traversal should be rejected")
	}
	n, err := st.Size("/a/b.bin")
	if err != nil || n != 3 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if got := st.List(); len(got) != 1 || got[0] != "/a/b.bin" {
		t.Fatalf("List = %v", got)
	}
	if _, err := st.Create(""); err == nil {
		t.Fatal("empty path should be rejected")
	}
}

func TestMemFileSparseWriteAt(t *testing.T) {
	st := NewMemStore()
	f, err := st.Create("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-order writes, as MODE E blocks arrive.
	if _, err := f.WriteAt([]byte("world"), 6); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello,"), 0); err != nil {
		t.Fatal(err)
	}
	got, _ := st.Get("/sparse")
	if string(got) != "hello,"+string(byte(0))+""+"world" && string(got[:6]) != "hello," {
		t.Fatalf("sparse content = %q", got)
	}
	if f.Size() != 11 {
		t.Fatalf("Size = %d", f.Size())
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 6); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("ReadAt = %q", buf)
	}
	if _, err := f.ReadAt(buf, 100); err != io.EOF {
		t.Fatalf("ReadAt past end err = %v", err)
	}
	if _, err := f.ReadAt(buf, -1); err == nil {
		t.Fatal("negative ReadAt offset should fail")
	}
	if _, err := f.WriteAt(buf, -1); err == nil {
		t.Fatal("negative WriteAt offset should fail")
	}
}

// TestMemFileWriteAtOverflow writes one byte at the largest offset: the
// end of the write does not fit in an int64, so it must be an error, not
// a wrapped slice bound and a panic.
func TestMemFileWriteAtOverflow(t *testing.T) {
	f, err := NewMemStore().Create("/huge")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.WriteAt([]byte{1}, math.MaxInt64); err == nil || n != 0 {
		t.Fatalf("WriteAt at MaxInt64 = %d, %v; want an overflow error", n, err)
	}
	if f.Size() != 0 {
		t.Fatalf("Size after the refused write = %d, want 0", f.Size())
	}
}

// TestMemFileWriteAtHoleBound: a write may leave a hole of up to
// MaxBlockLen past the end, as out-of-order MODE E blocks do, but one
// further is refused before anything is allocated, however far in range.
func TestMemFileWriteAtHoleBound(t *testing.T) {
	f, err := NewMemStore().Create("/holes")
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{MaxBlockLen + 1, math.MaxInt64 / 2} {
		if n, err := f.WriteAt([]byte{1}, off); err == nil || n != 0 || f.Size() != 0 {
			t.Fatalf("WriteAt at %d = %d, %v, size %d; want a refused write", off, n, err, f.Size())
		}
	}
	if _, err := f.WriteAt([]byte{1}, MaxBlockLen); err != nil || f.Size() != MaxBlockLen+1 {
		t.Fatalf("WriteAt at the bound: %v, size %d", err, f.Size())
	}
	// The bound moves with the end.
	if _, err := f.WriteAt([]byte{2}, 2*MaxBlockLen+1); err != nil || f.Size() != 2*MaxBlockLen+2 {
		t.Fatalf("WriteAt past the grown end: %v, size %d", err, f.Size())
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Fatal("server without store should be rejected")
	}
}

func TestLoginAndBasics(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	if _, err := c.Expect(215, "SYST"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Expect(200, "NOOP"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Expect(257, "PWD"); err != nil {
		t.Fatal(err)
	}
	n, err := c.Size("/data/hello.txt")
	if err != nil || n != 11 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
}

func TestAuthRequired(t *testing.T) {
	_, serverAuth := newGSI(t, "/CN=gridftpd", 1)
	_, clientAuth := newGSI(t, "/CN=ctyang", 2)
	st := NewMemStore()
	_, addr, _ := startServer(t, ServerConfig{Store: st, GSI: serverAuth, RequireGSI: true})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Commands before login are refused.
	code, _, err := c.Cmd("PASV")
	if err != nil || code != 530 {
		t.Fatalf("pre-login PASV = %d, %v", code, err)
	}
	if err := c.Login("ctyang", "thu"); err == nil {
		t.Fatal("password login should fail under RequireGSI")
	}
	if _, err := c.AuthGSI(clientAuth); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Passive(); err != nil {
		t.Fatal(err)
	}
}

func TestRetr(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	var buf bytes.Buffer
	n, err := c.Retr("/data/hello.txt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 11 || buf.String() != "hello, grid" {
		t.Fatalf("Retr = %d bytes, %q", n, buf.String())
	}
}

func TestRetrMissingFile(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	var buf bytes.Buffer
	if _, err := c.Retr("/no/such/file", &buf); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestStorAndRoundTrip(t *testing.T) {
	st, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	payload := bytes.Repeat([]byte("0123456789abcdef"), 64*1024) // 1 MiB
	n, err := c.Stor("/up/large.bin", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) {
		t.Fatalf("Stor sent %d, want %d", n, len(payload))
	}
	got, err := st.Get("/up/large.bin")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("server content mismatch: %d bytes, %v", len(got), err)
	}
	var buf bytes.Buffer
	if _, err := c.Retr("/up/large.bin", &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), payload) {
		t.Fatal("round trip mismatch")
	}
	// REST then STOR writes into the existing file from the offset.
	if _, err := c.streamData(16, "STOR /up/large.bin", func(d net.Conn) (int64, error) {
		return io.Copy(d, strings.NewReader("PATCHED"))
	}); err != nil {
		t.Fatal(err)
	}
	copy(payload[16:], "PATCHED")
	got, err = st.Get("/up/large.bin")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("REST+STOR content mismatch: %d bytes, %v", len(got), err)
	}
}

func TestRestPartialRetr(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	var buf bytes.Buffer
	n, err := c.RetrFrom("/data/hello.txt", 7, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || buf.String() != "grid" {
		t.Fatalf("partial = %d %q", n, buf.String())
	}
	// Offset beyond EOF is an error.
	if _, err := c.RetrFrom("/data/hello.txt", 100, &buf); err == nil {
		t.Fatal("offset beyond size should fail")
	}
}

func TestFeatMultiline(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	code, msg, err := c.Cmd("FEAT")
	if err != nil || code != 211 {
		t.Fatalf("FEAT = %d, %v", code, err)
	}
	if !strings.Contains(msg, "SIZE") || !strings.Contains(msg, "REST STREAM") {
		t.Fatalf("FEAT msg = %q", msg)
	}
}

// TestUnknownCommand: an unknown verb, and each verb the server no longer
// implements, answers 502, changes nothing, and leaves the session
// answering the next command.
func TestUnknownCommand(t *testing.T) {
	st, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	for _, cmd := range []string{
		"XYZZY",
		"APPE /data/hello.txt",
		"CWD /data",
		"CDUP",
		"DELE /data/hello.txt",
		"RNFR /data/hello.txt",
		"RNTO /data/moved.txt",
		"NLST",
		"MLSD /data",
		"CKSM MD5 0 -1 /data/hello.txt",
		"SPOR 127,0,0,1,0,1",
		"ESTO A 0 /data/hello.txt",
		"STAT",
	} {
		if code, _, err := c.Cmd(cmd); err != nil || code != 502 {
			t.Fatalf("%s = %d, %v; want 502", cmd, code, err)
		}
		if _, err := c.Expect(200, "NOOP"); err != nil {
			t.Fatalf("after %s: %v", cmd, err)
		}
	}
	if got := st.List(); len(got) != 1 || got[0] != "/data/hello.txt" {
		t.Fatalf("files after the refused verbs = %v", got)
	}
	if got, err := st.Get("/data/hello.txt"); err != nil || string(got) != "hello, grid" {
		t.Fatalf("content after the refused verbs = %q, %v", got, err)
	}
}

// TestFeatVerbsAnswered: FEAT and dispatch agree. Every line FEAT sends
// opens with a verb the server answers with something other than 502;
// PARALLEL is carried by OPTS.
func TestFeatVerbsAnswered(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	msg, err := c.Expect(211, "FEAT")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(msg, "\n")
	if len(lines) != len(features)+2 {
		t.Fatalf("FEAT body = %q, want %d feature lines", msg, len(features))
	}
	for _, line := range lines[1 : len(lines)-1] {
		verb, _, _ := strings.Cut(strings.TrimSpace(line), " ")
		if verb == "PARALLEL" {
			verb = "OPTS"
		}
		if code, _, err := c.Cmd(verb); err != nil || code == 502 {
			t.Fatalf("FEAT advertises %q, but %s = %d, %v", line, verb, code, err)
		}
	}
}

func TestTypeHandling(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	if _, err := c.Expect(200, "TYPE A"); err != nil {
		t.Fatal(err)
	}
	code, _, err := c.Cmd("TYPE X")
	if err != nil || code != 504 {
		t.Fatalf("TYPE X = %d, %v", code, err)
	}
}

func TestPasvAddrRoundTrip(t *testing.T) {
	addr, err := parsePasvAddr("127,0,0,1,4,210")
	if err != nil || addr != "127.0.0.1:1234" {
		t.Fatalf("ParsePasvAddr = %q, %v", addr, err)
	}
	for _, bad := range []string{"1,2,3", "a,b,c,d,e,f", "256,0,0,1,0,1", ""} {
		if _, err := parsePasvAddr(bad); err == nil {
			t.Fatalf("parsePasvAddr(%q) should fail", bad)
		}
	}
}

func TestConcurrentSessions(t *testing.T) {
	_, addr := startHello(t)
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			c, err := Dial(addr, ClientConfig{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if err := c.Login("u", "p"); err != nil {
				errs <- err
				return
			}
			var buf bytes.Buffer
			if _, err := c.Retr("/data/hello.txt", &buf); err != nil {
				errs <- err
				return
			}
			if buf.String() != "hello, grid" {
				errs <- errors.New("content mismatch")
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// Property: STOR then RETR round-trips arbitrary binary content.
func TestPropertyStorRetrRoundTrip(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	f := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, int(size)+1)
		rng.Read(payload)
		if _, err := c.Stor("/prop/file.bin", bytes.NewReader(payload)); err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := c.Retr("/prop/file.bin", &buf); err != nil {
			return false
		}
		return bytes.Equal(buf.Bytes(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
