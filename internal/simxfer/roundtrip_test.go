package simxfer

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/gridftp"
	"github.com/hpclab/datagrid/internal/gsi"
)

// countingRelay sits between a real client and a loopback server. It
// forwards the control connection and, by rewriting each 227 reply, every
// data connection the client opens through PASV, and counts what a
// session costs before its first payload byte: client control lines
// (commands and GSI handshake lines, one round trip each) and TCP
// connects, control and data.
type countingRelay struct {
	t  *testing.T
	ln net.Listener
	wg sync.WaitGroup

	mu         sync.Mutex
	commands   int // client control lines so far
	beforeData int // commands when the first payload byte arrived; -1 before
	connects   int
}

func newCountingRelay(t *testing.T, server string) *countingRelay {
	r := &countingRelay{t: t, beforeData: -1}
	t.Cleanup(r.wg.Wait)
	ln, err := r.forward(server, r.control)
	if err != nil {
		t.Fatal(err)
	}
	r.ln = ln
	return r
}

// forward listens on loopback and hands every accepted connection, with
// a fresh connection to target, to serve.
func (r *countingRelay) forward(target string, serve func(client, server net.Conn)) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", target)
			if err != nil {
				r.t.Error(err)
				c.Close()
				continue
			}
			r.mu.Lock()
			r.connects++
			r.mu.Unlock()
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				serve(c, s)
			}()
		}
	}()
	r.t.Cleanup(func() { ln.Close() })
	return ln, nil
}

// control relays one control connection line by line, pointing each 227
// reply at a data forwarder of its own.
func (r *countingRelay) control(client, server net.Conn) {
	go r.lines(client, server, func(l string) string {
		r.mu.Lock()
		r.commands++
		r.mu.Unlock()
		return l
	})
	r.lines(server, client, func(l string) string {
		open, end := strings.IndexByte(l, '('), strings.IndexByte(l, ')')
		if !strings.HasPrefix(l, "227 ") || open < 0 || end < open {
			return l
		}
		var n [6]int
		if _, err := fmt.Sscanf(l[open+1:end], "%d,%d,%d,%d,%d,%d", &n[0], &n[1], &n[2], &n[3], &n[4], &n[5]); err != nil {
			r.t.Errorf("227 reply %q: %v", l, err)
			return l
		}
		fwd, err := r.forward(fmt.Sprintf("%d.%d.%d.%d:%d", n[0], n[1], n[2], n[3], n[4]*256+n[5]), r.data)
		if err != nil {
			r.t.Error(err)
			return l
		}
		p := fwd.Addr().(*net.TCPAddr).Port
		return fmt.Sprintf("%s127,0,0,1,%d,%d%s", l[:open+1], p/256, p%256, l[end:])
	})
}

func (r *countingRelay) lines(from, to net.Conn, edit func(string) string) {
	defer to.Close()
	br := bufio.NewReader(from)
	for {
		l, err := br.ReadString('\n')
		if l != "" {
			if _, werr := io.WriteString(to, edit(l)); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// data relays one data connection, noting when payload first arrives.
func (r *countingRelay) data(client, server net.Conn) {
	go func() {
		io.Copy(server, client)
		server.Close()
	}()
	buf := make([]byte, 32<<10)
	for {
		n, err := server.Read(buf)
		if n > 0 {
			r.mu.Lock()
			if r.beforeData < 0 {
				r.beforeData = r.commands
			}
			r.mu.Unlock()
			if _, werr := client.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	client.Close()
}

// TestSetupRoundTripsAgainstRealStack counts, on the real client and
// server, the control-channel commands a download sends before its first
// payload byte and the TCP connects it makes, for each protocol simxfer
// models, and pins them beside what setupRoundTrips charges. The counts
// are the implementation's; the charge is the model's. A change to
// either moves a pinned number here (docs/SIMULATOR.md, "What the setup
// charge leaves out").
func TestSetupRoundTripsAgainstRealStack(t *testing.T) {
	payload := bytes.Repeat([]byte("round-trip "), 24<<10)
	ca, err := gsi.NewCA([]byte("roundtrip-vo"))
	if err != nil {
		t.Fatal(err)
	}
	authFor := func(subject string, seed int64) *gsi.Authenticator {
		cred, err := ca.Issue(subject)
		if err != nil {
			t.Fatal(err)
		}
		a, err := gsi.NewAuthenticator(ca, cred, seed)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	cases := []struct {
		name     string
		proto    Protocol
		gsi      bool
		streams  int
		commands int // client control lines before the first payload byte
		connects int // control plus data TCP connects
		charged  int // setupRoundTrips(proto)
	}{
		// USER PASS TYPE SIZE PASV RETR: 8 = 8
		{"ftp", ProtoFTP, false, 1, 6, 2, 8},
		// AUTH GSI/1 GSI/1 TYPE SIZE PASV RETR: 9, charged 12
		{"gridftp-stream", ProtoGridFTPStream, true, 1, 7, 2, 12},
		// AUTH GSI/1 GSI/1 TYPE MODE OPTS SIZE PASV RETR: 11, charged 12
		{"modeE-p1", ProtoGridFTPModeE, true, 1, 9, 2, 12},
		// the same with four data connects, dialed one after another:
		// 14, charged 12
		{"modeE-p4", ProtoGridFTPModeE, true, 4, 9, 5, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := gridftp.NewMemStore()
			if err := st.Put("/data/f.bin", payload); err != nil {
				t.Fatal(err)
			}
			cfg := gridftp.ServerConfig{Store: st}
			if tc.gsi {
				cfg.GSI, cfg.RequireGSI = authFor("/CN=gridftpd", 1), true
			}
			srv, err := gridftp.NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			r := newCountingRelay(t, addr)
			c, err := gridftp.Dial(r.ln.Addr().String(), gridftp.ClientConfig{Parallelism: tc.streams, Timeout: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if tc.gsi {
				_, err = c.AuthGSI(authFor("/CN=user", 2))
			} else {
				err = c.Login("anonymous", "x")
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Setup(); err != nil {
				t.Fatal(err)
			}
			if tc.proto == ProtoGridFTPModeE && !c.ModeE() {
				if err := c.UseModeE(); err != nil {
					t.Fatal(err)
				}
			}
			got, err := c.Get("/data/f.bin")
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("Get = %d bytes, %v", len(got), err)
			}
			r.mu.Lock()
			commands, connects := r.beforeData, r.connects
			r.mu.Unlock()
			if commands != tc.commands || connects != tc.connects {
				t.Errorf("real %s download: %d commands and %d connects before data, pinned %d and %d",
					tc.name, commands, connects, tc.commands, tc.connects)
			}
			if got := setupRoundTrips(tc.proto); got != tc.charged {
				t.Errorf("setupRoundTrips(%v) = %d, pinned %d", tc.proto, got, tc.charged)
			}
		})
	}
}
