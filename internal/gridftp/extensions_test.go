package gridftp

import (
	"io"
	"net"
	"strings"
	"testing"
)

// TestCwdRelativePaths: every session's working directory is the root.
// PWD answers "/", relative arguments resolve against it, and CWD and CDUP
// are not implemented.
func TestCwdRelativePaths(t *testing.T) {
	_, addr := startHello(t)
	c := dialAndLogin(t, addr, ClientConfig{})
	got, err := c.Get("data/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello, grid" {
		t.Fatalf("relative RETR = %q", got)
	}
	n, err := c.Size("data/../data/hello.txt")
	if err != nil || n != 11 {
		t.Fatalf("relative SIZE = %d, %v", n, err)
	}
	if err := c.Put("up/nested.bin", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Size("/up/nested.bin"); err != nil {
		t.Fatalf("relative STOR landed wrong: %v", err)
	}
	for _, cmd := range []string{"CWD /data", "CDUP"} {
		if code, _, err := c.Cmd(cmd); err != nil || code != 502 {
			t.Fatalf("%s = %d, %v; want 502", cmd, code, err)
		}
	}
	msg, err := c.Expect(257, "PWD")
	if err != nil || !strings.Contains(msg, `"/"`) {
		t.Fatalf("PWD = %q, %v", msg, err)
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
