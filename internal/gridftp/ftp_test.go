package gridftp

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"
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
	if len(st.files) != 1 || st.files["/a/b.bin"] == nil {
		t.Fatalf("files = %v", st.files)
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
	got, err := c.Get("/data/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello, grid" {
		t.Fatalf("Get = %q", got)
	}
}

// TestGetRefusesNegativeSize: a download sizes its buffer by the SIZE
// reply, so a negative size is an error, not a panic.
func TestGetRefusesNegativeSize(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	go func() {
		defer srv.Close()
		if _, err := bufio.NewReader(srv).ReadString('\n'); err == nil {
			srv.Write([]byte("213 -5\r\n"))
		}
	}()
	c := &Client{conn: cli, r: bufio.NewReader(cli), cfg: ClientConfig{Timeout: 5 * time.Second}}
	if _, err := c.Get("/data/f.bin"); err == nil || !strings.Contains(err.Error(), "negative size") {
		t.Fatalf("Get with SIZE -5 = %v, want a negative-size error", err)
	}
}

// TestRetrMissingFile: RETR of a missing file answers 550 before any data
// connection is asked for, and Get fails.
func TestRetrMissingFile(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	if code, _, err := c.Cmd("RETR /no/such/file"); err != nil || code != 550 {
		t.Fatalf("RETR missing = %d, %v; want 550", code, err)
	}
	if _, err := c.Get("/no/such/file"); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestStorAndRoundTrip(t *testing.T) {
	st, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	payload := bytes.Repeat([]byte("0123456789abcdef"), 64*1024) // 1 MiB
	if err := c.Put("/up/large.bin", payload); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("/up/large.bin")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("server content mismatch: %d bytes, %v", len(got), err)
	}
	if got, err := c.Get("/up/large.bin"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip = %d bytes, %v", len(got), err)
	}
	// REST then STOR writes into the existing file from the offset.
	if _, err := c.Expect(350, "REST 16"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.transfer(nil, "STOR /up/large.bin", nil, []byte("PATCHED")); err != nil || n != 7 {
		t.Fatalf("REST+STOR sent %d, %v", n, err)
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
	if _, err := c.Expect(350, "REST 7"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	n, err := c.transfer(nil, "RETR /data/hello.txt", byteWriterAt{buf}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || string(buf) != "grid" {
		t.Fatalf("partial = %d %q", n, buf)
	}
	// Offset beyond EOF is refused with 554.
	if _, err := c.Expect(350, "REST 100"); err != nil {
		t.Fatal(err)
	}
	if code, _, err := c.Cmd("RETR /data/hello.txt"); err != nil || code != 554 {
		t.Fatalf("RETR past the end = %d, %v; want 554", code, err)
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
	if len(st.files) != 1 || st.files["/data/hello.txt"] == nil {
		t.Fatalf("files after the refused verbs = %v", st.files)
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
			got, err := c.Get("/data/hello.txt")
			if err != nil {
				errs <- err
				return
			}
			if string(got) != "hello, grid" {
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
		if err := c.Put("/prop/file.bin", payload); err != nil {
			return false
		}
		got, err := c.Get("/prop/file.bin")
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
