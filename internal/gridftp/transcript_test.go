package gridftp_test

import (
	"bufio"
	"bytes"
	"flag"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/coalloc"
	"github.com/hpclab/datagrid/internal/gridftp"
	"github.com/hpclab/datagrid/internal/gsi"
)

var updateTranscripts = flag.Bool("update", false, "rewrite testdata/transcripts from this tree")

// relay is a loopback TCP forwarder in front of a server's control port.
// It records every line crossing it — client to server as "C:", server to
// client as "S:" — so a test pins the control-channel transcript with no
// hook in the server or the client. A line is logged before it is
// forwarded, so the reply to a command always follows the command.
type relay struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	lines []string
}

func startRelay(t *testing.T, target string) *relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{ln: ln}
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
				t.Error(err)
				c.Close()
				continue
			}
			r.wg.Add(2)
			go r.pipe("C: ", c, s)
			go r.pipe("S: ", s, c)
		}
	}()
	t.Cleanup(func() { r.close() })
	return r
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) pipe(tag string, from, to net.Conn) {
	defer r.wg.Done()
	defer to.Close()
	br := bufio.NewReader(from)
	for {
		line, err := br.ReadString('\n')
		if line != "" {
			r.mu.Lock()
			r.lines = append(r.lines, tag+strconv.Quote(line))
			r.mu.Unlock()
			if _, werr := to.Write([]byte(line)); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

func (r *relay) close() {
	r.ln.Close()
	r.wg.Wait()
}

var (
	addrSpec = regexp.MustCompile(`\d+,\d+,\d+,\d+,\d+,\d+`)
	hostPort = regexp.MustCompile(`(\d+\.\d+\.\d+\.\d+):\d+`)
)

// transcript waits for the relayed sessions to end and returns their
// lines with data-channel ports and h1,…,p2 address specs normalised.
func (r *relay) transcript() string {
	r.close()
	var b strings.Builder
	for _, l := range r.lines {
		l = addrSpec.ReplaceAllString(l, "h1,h2,h3,h4,p1,p2")
		b.WriteString(hostPort.ReplaceAllString(l, "$1:PORT"))
		b.WriteByte('\n')
	}
	return b.String()
}

// transcriptWorld is one case's servers, each behind its own relay.
type transcriptWorld struct {
	t       *testing.T
	payload []byte
	relays  []*relay
}

// serve starts a server on st (nil: a MemStore holding /data/big.bin)
// behind a relay and returns the relay's address.
func (w *transcriptWorld) serve(cfg gridftp.ServerConfig) string {
	t := w.t
	if cfg.Store == nil {
		st := gridftp.NewMemStore()
		if err := st.Put("/data/big.bin", w.payload); err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	srv, err := gridftp.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	r := startRelay(t, addr)
	w.relays = append(w.relays, r)
	return r.addr()
}

// login dials addr and logs in with USER/PASS, or with GSI when a is set,
// then runs Setup.
func (w *transcriptWorld) login(addr string, cfg gridftp.ClientConfig, a *gsi.Authenticator) *gridftp.Client {
	t := w.t
	cfg.Timeout = 10 * time.Second
	c, err := gridftp.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if a != nil {
		if _, err := c.AuthGSI(a); err != nil {
			t.Fatal(err)
		}
	} else if err := c.Login("anonymous", "x@y"); err != nil {
		t.Fatal(err)
	}
	if err := c.Setup(); err != nil {
		t.Fatal(err)
	}
	return c
}

func (w *transcriptWorld) quit(cs ...*gridftp.Client) {
	for _, c := range cs {
		if err := c.Quit(); err != nil {
			w.t.Fatal(err)
		}
	}
}

func (w *transcriptWorld) get(c *gridftp.Client) {
	got, err := c.Get("/data/big.bin")
	if err != nil {
		w.t.Fatal(err)
	}
	if !bytes.Equal(got, w.payload) {
		w.t.Fatal("payload mismatch")
	}
}

// seededGSI returns an authenticator for subject under the "transcript-vo"
// CA whose nonces come from seed, so handshakes replay byte for byte.
func seededGSI(t *testing.T, subject string, seed int64) *gsi.Authenticator {
	t.Helper()
	ca, err := gsi.NewCA([]byte("transcript-vo"))
	if err != nil {
		t.Fatal(err)
	}
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

// transcriptCases are the client operations the binaries and examples
// run, one control-channel golden each.
var transcriptCases = []struct {
	name string
	run  func(w *transcriptWorld)
}{
	{"login-userpass", func(w *transcriptWorld) {
		w.quit(w.login(w.serve(gridftp.ServerConfig{}), gridftp.ClientConfig{}, nil))
	}},
	{"auth-gsi", func(w *transcriptWorld) {
		srv := gridftp.ServerConfig{GSI: seededGSI(w.t, "/CN=gridftpd", 1), RequireGSI: true}
		c := w.login(w.serve(srv), gridftp.ClientConfig{Parallelism: 4}, seededGSI(w.t, "/CN=user", 2))
		w.get(c)
		w.quit(c)
	}},
	{"get-stream", func(w *transcriptWorld) {
		c := w.login(w.serve(gridftp.ServerConfig{}), gridftp.ClientConfig{}, nil)
		w.get(c)
		w.quit(c)
	}},
	{"get-modee-p1", func(w *transcriptWorld) {
		c := w.login(w.serve(gridftp.ServerConfig{}), gridftp.ClientConfig{Parallelism: 1}, nil)
		if err := c.UseModeE(); err != nil {
			w.t.Fatal(err)
		}
		w.get(c)
		w.quit(c)
	}},
	{"get-modee-p4", func(w *transcriptWorld) {
		c := w.login(w.serve(gridftp.ServerConfig{}), gridftp.ClientConfig{Parallelism: 4}, nil)
		w.get(c)
		w.quit(c)
	}},
	{"put-stream", func(w *transcriptWorld) {
		c := w.login(w.serve(gridftp.ServerConfig{}), gridftp.ClientConfig{}, nil)
		if err := c.Put("/up/s.bin", w.payload[:100_001]); err != nil {
			w.t.Fatal(err)
		}
		w.quit(c)
	}},
	{"put-modee-p4", func(w *transcriptWorld) {
		c := w.login(w.serve(gridftp.ServerConfig{}), gridftp.ClientConfig{Parallelism: 4}, nil)
		if err := c.Put("/up/e.bin", w.payload[:700_001]); err != nil {
			w.t.Fatal(err)
		}
		w.quit(c)
	}},
	{"getpartial-stream", func(w *transcriptWorld) {
		c := w.login(w.serve(gridftp.ServerConfig{}), gridftp.ClientConfig{}, nil)
		got, err := c.GetPartial("/data/big.bin", 1000, 5000)
		if err != nil || !bytes.Equal(got, w.payload[1000:6000]) {
			w.t.Fatalf("GetPartial = %d bytes, %v", len(got), err)
		}
		w.quit(c)
	}},
	{"getpartial-modee-p4", func(w *transcriptWorld) {
		c := w.login(w.serve(gridftp.ServerConfig{}), gridftp.ClientConfig{Parallelism: 4}, nil)
		got, err := c.GetPartial("/data/big.bin", 123456, 70000)
		if err != nil || !bytes.Equal(got, w.payload[123456:193456]) {
			w.t.Fatalf("GetPartial = %d bytes, %v", len(got), err)
		}
		w.quit(c)
	}},
	{"getstriped", func(w *transcriptWorld) {
		c := w.login(w.serve(gridftp.ServerConfig{Stripes: 3}), gridftp.ClientConfig{Parallelism: 2}, nil)
		got, err := c.GetStriped("/data/big.bin")
		if err != nil || !bytes.Equal(got, w.payload) {
			w.t.Fatalf("GetStriped = %d bytes, %v", len(got), err)
		}
		w.quit(c)
	}},
	{"thirdparty-stream", func(w *transcriptWorld) {
		dstStore := gridftp.NewMemStore()
		src := w.login(w.serve(gridftp.ServerConfig{}), gridftp.ClientConfig{}, nil)
		dst := w.login(w.serve(gridftp.ServerConfig{Store: dstStore}), gridftp.ClientConfig{}, nil)
		if err := gridftp.ThirdParty(src, "/data/big.bin", dst, "/mirror/big.bin"); err != nil {
			w.t.Fatal(err)
		}
		if got, err := dstStore.Get("/mirror/big.bin"); err != nil || !bytes.Equal(got, w.payload) {
			w.t.Fatalf("mirror = %d bytes, %v", len(got), err)
		}
		w.quit(src, dst)
	}},
	{"thirdparty-modee-p4", func(w *transcriptWorld) {
		dstStore := gridftp.NewMemStore()
		src := w.login(w.serve(gridftp.ServerConfig{}), gridftp.ClientConfig{Parallelism: 4}, nil)
		dst := w.login(w.serve(gridftp.ServerConfig{Store: dstStore}), gridftp.ClientConfig{Parallelism: 4}, nil)
		if err := gridftp.ThirdParty(src, "/data/big.bin", dst, "/mirror/big.bin"); err != nil {
			w.t.Fatal(err)
		}
		if got, err := dstStore.Get("/mirror/big.bin"); err != nil || !bytes.Equal(got, w.payload) {
			w.t.Fatalf("mirror = %d bytes, %v", len(got), err)
		}
		w.quit(src, dst)
	}},
	{"coalloc-eret", func(w *transcriptWorld) {
		c := w.login(w.serve(gridftp.ServerConfig{}), gridftp.ClientConfig{Parallelism: 2}, nil)
		src, err := coalloc.NewGridFTPSource("only", c)
		if err != nil {
			w.t.Fatal(err)
		}
		got, _, err := coalloc.Fetch([]coalloc.Source{src}, "/data/big.bin", int64(len(w.payload)),
			coalloc.Options{ChunkBytes: 300 << 10})
		if err != nil || !bytes.Equal(got, w.payload) {
			w.t.Fatalf("Fetch = %d bytes, %v", len(got), err)
		}
		w.quit(c)
	}},
}

// TestControlTranscripts pins the control-channel bytes of every client
// operation the binaries and examples use, against
// testdata/transcripts/<case>.txt (regenerate with -update only for a
// reviewed protocol change). Each server of a case has its own relay, and
// their transcripts are joined in the order the servers were started.
func TestControlTranscripts(t *testing.T) {
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(99)).Read(payload)
	for _, tc := range transcriptCases {
		t.Run(tc.name, func(t *testing.T) {
			w := &transcriptWorld{t: t, payload: payload}
			tc.run(w)
			var got strings.Builder
			for i, r := range w.relays {
				if len(w.relays) > 1 {
					got.WriteString("== server " + strconv.Itoa(i) + "\n")
				}
				got.WriteString(r.transcript())
			}
			path := filepath.Join("testdata", "transcripts", tc.name+".txt")
			if *updateTranscripts {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("transcript drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got.String(), want)
			}
		})
	}
}
