package gridftp

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
)

func TestStoreRename(t *testing.T) {
	st := NewMemStore()
	if err := st.Put("/a.txt", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := st.Rename("/a.txt", "/b/c.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Open("/a.txt"); !errors.Is(err, ErrNotFound) {
		t.Fatal("old name should be gone")
	}
	got, err := st.Get("/b/c.txt")
	if err != nil || string(got) != "data" {
		t.Fatalf("renamed content = %q, %v", got, err)
	}
	if err := st.Rename("/missing", "/x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rename missing err = %v", err)
	}
	if err := st.Rename("/b/c.txt", "../escape"); err == nil {
		t.Fatal("traversal target should be rejected")
	}
}

func TestClientRename(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	if err := c.Rename("/data/hello.txt", "/archive/hello.txt"); err != nil {
		t.Fatal(err)
	}
	files, err := c.List()
	if err != nil || len(files) != 1 || files[0] != "/archive/hello.txt" {
		t.Fatalf("List after rename = %v, %v", files, err)
	}
	if err := c.Rename("/missing", "/x"); err == nil {
		t.Fatal("renaming a missing file should fail")
	}
	// RNTO without RNFR is a sequence error.
	code, _, err := c.Cmd("RNTO /y")
	if err != nil || code != 503 {
		t.Fatalf("bare RNTO = %d, %v", code, err)
	}
}

func TestClientAppend(t *testing.T) {
	st, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	if _, err := c.Append("/log.txt", strings.NewReader("line one\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append("/log.txt", strings.NewReader("line two\n")); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("/log.txt")
	if err != nil || string(got) != "line one\nline two\n" {
		t.Fatalf("appended content = %q, %v", got, err)
	}
}

func TestClientDelete(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	if err := c.Delete("/data/hello.txt"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("/data/hello.txt"); err == nil {
		t.Fatal("double delete should fail")
	}
}

func TestCwdRelativePaths(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	if err := c.ChangeDir("/data"); err != nil {
		t.Fatal(err)
	}
	msg, err := c.Expect(257, "PWD")
	if err != nil || !strings.Contains(msg, "/data") {
		t.Fatalf("PWD = %q, %v", msg, err)
	}
	// Relative RETR resolves against the cwd.
	var buf bytes.Buffer
	if _, err := c.Retr("hello.txt", &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "hello, grid" {
		t.Fatalf("relative RETR = %q", buf.String())
	}
	// SIZE too.
	n, err := c.Size("hello.txt")
	if err != nil || n != 11 {
		t.Fatalf("relative SIZE = %d, %v", n, err)
	}
	// CDUP pops back to root.
	if _, err := c.Expect(250, "CDUP"); err != nil {
		t.Fatal(err)
	}
	msg, _ = c.Expect(257, "PWD")
	if !strings.Contains(msg, `"/"`) {
		t.Fatalf("PWD after CDUP = %q", msg)
	}
	// Relative STOR lands under the cwd.
	if err := c.ChangeDir("up"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stor("nested.bin", strings.NewReader("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Size("/up/nested.bin"); err != nil {
		t.Fatalf("relative STOR landed wrong: %v", err)
	}
	code, _, err := c.Cmd("CWD")
	if err != nil || code != 501 {
		t.Fatalf("empty CWD = %d, %v", code, err)
	}
}

func TestStatCommand(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	code, msg, err := c.Cmd("STAT")
	if err != nil || code != 211 {
		t.Fatalf("STAT = %d, %v", code, err)
	}
	for _, want := range []string{"logged in: true", "mode: S", "cwd: /", "files: 1"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("STAT missing %q:\n%s", want, msg)
		}
	}
	code, msg, err = c.Cmd("STAT /data/hello.txt")
	if err != nil || code != 213 || !strings.Contains(msg, "size: 11") {
		t.Fatalf("STAT file = %d %q, %v", code, msg, err)
	}
	code, _, err = c.Cmd("STAT /missing")
	if err != nil || code != 550 {
		t.Fatalf("STAT missing = %d, %v", code, err)
	}
}

func TestAbor(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	code, _, err := c.Cmd("ABOR")
	if err != nil || code != 226 {
		t.Fatalf("ABOR = %d, %v", code, err)
	}
}

func TestMLSD(t *testing.T) {
	st, addr := startHello(t)
	if err := st.Put("/data/other.bin", make([]byte, 42)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("/elsewhere/x", []byte("y")); err != nil {
		t.Fatal(err)
	}
	c := dialAndLogin(t, addr, ClientConfig{})
	all, err := c.ListFacts("/")
	if err != nil || len(all) != 3 {
		t.Fatalf("ListFacts(/) = %v, %v", all, err)
	}
	data, err := c.ListFacts("/data")
	if err != nil || len(data) != 2 {
		t.Fatalf("ListFacts(/data) = %v, %v", data, err)
	}
	bySize := map[string]int64{}
	for _, fi := range data {
		bySize[fi.Path] = fi.Size
	}
	if bySize["/data/hello.txt"] != 11 || bySize["/data/other.bin"] != 42 {
		t.Fatalf("sizes = %v", bySize)
	}
	// Relative to cwd.
	if err := c.ChangeDir("/elsewhere"); err != nil {
		t.Fatal(err)
	}
	rel, err := c.ListFacts("")
	if err != nil || len(rel) != 1 || rel[0].Path != "/elsewhere/x" {
		t.Fatalf("ListFacts cwd = %v, %v", rel, err)
	}
}

// TestActiveModePortRetr exercises the PORT (active mode) data path: the
// client listens and the server dials back.
func TestActiveModePortRetr(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	spec, err := formatAddr(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Expect(200, "PORT %s", spec); err != nil {
		t.Fatal(err)
	}
	type result struct {
		data []byte
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			ch <- result{nil, err}
			return
		}
		defer conn.Close()
		data, err := io.ReadAll(conn)
		ch <- result{data, err}
	}()
	if _, err := c.Expect(150, "RETR /data/hello.txt"); err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	if string(r.data) != "hello, grid" {
		t.Fatalf("active-mode data = %q", r.data)
	}
	if _, err := c.expectFinal(226); err != nil {
		t.Fatal(err)
	}
}

func TestDataCommandWithoutPasvOrPort(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	code, _, err := c.Cmd("RETR /data/hello.txt")
	if err != nil || code != 150 {
		t.Fatalf("RETR first reply = %d, %v", code, err)
	}
	code, _, err = c.readReply()
	if err != nil || code != 425 {
		t.Fatalf("RETR without data setup = %d, %v; want 425", code, err)
	}
}

func TestRestBadOffset(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	for _, bad := range []string{"REST x", "REST -5"} {
		code, _, err := c.Cmd(bad)
		if err != nil || code != 501 {
			t.Fatalf("%q = %d, %v; want 501", bad, code, err)
		}
	}
}

func TestFormatAddrSpecErrors(t *testing.T) {
	if _, err := formatAddr("not-an-addr"); err == nil {
		t.Fatal("bad hostport should fail")
	}
	if _, err := formatAddr("[::1]:80"); err == nil {
		t.Fatal("IPv6 should be rejected for the PORT form")
	}
	spec, err := formatAddr("10.1.2.3:1234")
	if err != nil || spec != "10,1,2,3,4,210" {
		t.Fatalf("spec = %q, %v", spec, err)
	}
}

func TestPasswordBeforeUser(t *testing.T) {
	_, addr := startHello(t)
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	code, _, err := c.Cmd("PASS secret")
	if err != nil || code != 503 {
		t.Fatalf("PASS before USER = %d, %v; want 503", code, err)
	}
	code, _, err = c.Cmd("USER")
	if err != nil || code != 501 {
		t.Fatalf("bare USER = %d, %v; want 501", code, err)
	}
}
