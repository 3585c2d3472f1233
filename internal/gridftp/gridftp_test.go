package gridftp

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/hpclab/datagrid/internal/gsi"
)

// startServer launches a GridFTP server with a seeded payload file.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string, []byte) {
	t.Helper()
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(99)).Read(payload)
	if cfg.Store == nil {
		st := NewMemStore()
		if err := st.Put("/data/big.bin", payload); err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, payload
}

// memStore returns the MemStore a test server was started on.
func memStore(srv *Server) *MemStore { return srv.cfg.Store.(*MemStore) }

func dialAndLogin(t *testing.T, addr string, cfg ClientConfig) *Client {
	t.Helper()
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Login("anonymous", "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Setup(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStreamModeGet(t *testing.T) {
	_, addr, payload := startServer(t, ServerConfig{})
	c := dialAndLogin(t, addr, ClientConfig{})
	got, err := c.Get("/data/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("stream-mode content mismatch")
	}
	if c.ModeE() {
		t.Fatal("parallelism 1 should not enable MODE E by default")
	}
}

func TestModeEGetSingleChannel(t *testing.T) {
	_, addr, payload := startServer(t, ServerConfig{})
	c := dialAndLogin(t, addr, ClientConfig{Parallelism: 1})
	if err := c.UseModeE(); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("/data/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("MODE E single-channel mismatch")
	}
}

func TestModeEParallelGet(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		_, addr, payload := startServer(t, ServerConfig{})
		c := dialAndLogin(t, addr, ClientConfig{Parallelism: p})
		if !c.ModeE() {
			t.Fatal("parallelism > 1 must enable MODE E in Setup")
		}
		got, err := c.Get("/data/big.bin")
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("p=%d content mismatch", p)
		}
	}
}

func TestModeEPut(t *testing.T) {
	srv, addr, _ := startServer(t, ServerConfig{})
	c := dialAndLogin(t, addr, ClientConfig{Parallelism: 4})
	payload := make([]byte, 700_001)
	rand.New(rand.NewSource(5)).Read(payload)
	if err := c.Put("/up/parallel.bin", payload); err != nil {
		t.Fatal(err)
	}
	got, err := memStore(srv).Get("/up/parallel.bin")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("upload mismatch: %d bytes, %v", len(got), err)
	}
}

func TestStreamModePut(t *testing.T) {
	srv, addr, _ := startServer(t, ServerConfig{})
	c := dialAndLogin(t, addr, ClientConfig{})
	payload := []byte("plain old stream upload")
	if err := c.Put("/up/s.bin", payload); err != nil {
		t.Fatal(err)
	}
	got, err := memStore(srv).Get("/up/s.bin")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("upload mismatch: %v, %v", got, err)
	}
}

func TestPartialTransferERET(t *testing.T) {
	_, addr, payload := startServer(t, ServerConfig{})
	// Stream mode.
	c := dialAndLogin(t, addr, ClientConfig{})
	got, err := c.GetPartial("/data/big.bin", 1000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[1000:6000]) {
		t.Fatal("stream partial mismatch")
	}
	// MODE E with parallel channels.
	c2 := dialAndLogin(t, addr, ClientConfig{Parallelism: 3})
	got, err = c2.GetPartial("/data/big.bin", 123456, 70000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[123456:123456+70000]) {
		t.Fatal("MODE E partial mismatch")
	}
	// An empty range is an empty slice, not nil, in both modes.
	for _, cl := range []*Client{c, c2} {
		if got, err := cl.GetPartial("/data/big.bin", 1000, 0); err != nil || got == nil || len(got) != 0 {
			t.Fatalf("empty GetPartial = %#v, %v; want an empty slice", got, err)
		}
	}
	// Region past EOF is refused.
	if _, err := c2.GetPartial("/data/big.bin", 1<<20, 10); err == nil {
		t.Fatal("region beyond EOF should fail")
	}
	if _, err := c2.GetPartial("/data/big.bin", -1, 10); err == nil {
		t.Fatal("negative offset should fail")
	}
}

func TestRestPartialModeE(t *testing.T) {
	_, addr, payload := startServer(t, ServerConfig{})
	c := dialAndLogin(t, addr, ClientConfig{Parallelism: 2})
	if _, err := c.Expect(350, "REST %d", 1<<19); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	if _, err := c.transfer(nil, "RETR /data/big.bin", byteWriterAt{buf}, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[1<<19:], payload[1<<19:]) {
		t.Fatal("REST+RETR tail mismatch")
	}
}

func TestStripedGet(t *testing.T) {
	_, addr, payload := startServer(t, ServerConfig{Stripes: 3})
	c := dialAndLogin(t, addr, ClientConfig{Parallelism: 2})
	got, err := c.GetStriped("/data/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("striped content mismatch")
	}
	// Striping requires MODE E.
	c2 := dialAndLogin(t, addr, ClientConfig{})
	if _, err := c2.GetStriped("/data/big.bin"); err == nil {
		t.Fatal("striped get without MODE E should fail")
	}
}

func TestThirdPartyStream(t *testing.T) {
	srcSrv, srcAddr, payload := startServer(t, ServerConfig{})
	dstStore := NewMemStore()
	_, dstAddr, _ := startServer(t, ServerConfig{Store: dstStore})
	_ = srcSrv
	src := dialAndLogin(t, srcAddr, ClientConfig{})
	dst := dialAndLogin(t, dstAddr, ClientConfig{})
	if err := ThirdParty(src, "/data/big.bin", dst, "/mirror/big.bin"); err != nil {
		t.Fatal(err)
	}
	got, err := dstStore.Get("/mirror/big.bin")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("third-party copy mismatch: %d bytes, %v", len(got), err)
	}
}

func TestThirdPartyModeEParallel(t *testing.T) {
	_, srcAddr, payload := startServer(t, ServerConfig{})
	dstStore := NewMemStore()
	_, dstAddr, _ := startServer(t, ServerConfig{Store: dstStore})
	src := dialAndLogin(t, srcAddr, ClientConfig{Parallelism: 4})
	dst := dialAndLogin(t, dstAddr, ClientConfig{Parallelism: 4})
	if err := ThirdParty(src, "/data/big.bin", dst, "/mirror/big.bin"); err != nil {
		t.Fatal(err)
	}
	got, err := dstStore.Get("/mirror/big.bin")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("parallel third-party mismatch: %d bytes, %v", len(got), err)
	}
}

func TestThirdPartyModeMismatch(t *testing.T) {
	_, srcAddr, _ := startServer(t, ServerConfig{})
	_, dstAddr, _ := startServer(t, ServerConfig{})
	src := dialAndLogin(t, srcAddr, ClientConfig{Parallelism: 2})
	dst := dialAndLogin(t, dstAddr, ClientConfig{})
	if err := ThirdParty(src, "/a", dst, "/b"); err == nil {
		t.Fatal("mode mismatch should be rejected")
	}
	if err := ThirdParty(nil, "/a", dst, "/b"); err == nil {
		t.Fatal("nil client should be rejected")
	}
}

func newGSI(t *testing.T, subject string, seed int64) (*gsi.CA, *gsi.Authenticator) {
	t.Helper()
	ca, err := gsi.NewCA([]byte("test-vo"))
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
	return ca, a
}

func TestAuthGSI(t *testing.T) {
	_, serverAuth := newGSI(t, "/CN=gridftpd", 1)
	_, clientAuth := newGSI(t, "/CN=user", 2)
	_, addr, payload := startServer(t, ServerConfig{GSI: serverAuth, RequireGSI: true})
	c, err := Dial(addr, ClientConfig{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// USER/PASS is disabled when GSI is required.
	if err := c.Login("anonymous", "x"); err == nil {
		t.Fatal("password login must be refused under RequireGSI")
	}
	peer, err := c.AuthGSI(clientAuth)
	if err != nil {
		t.Fatal(err)
	}
	if peer != "/CN=gridftpd" {
		t.Fatalf("peer = %q", peer)
	}
	if err := c.Setup(); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("/data/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("GSI-authenticated transfer mismatch")
	}
}

func TestAuthGSIWrongCA(t *testing.T) {
	_, serverAuth := newGSI(t, "/CN=gridftpd", 1)
	rogueCA, err := gsi.NewCA([]byte("rogue"))
	if err != nil {
		t.Fatal(err)
	}
	cred, err := rogueCA.Issue("/CN=mallory")
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := gsi.NewAuthenticator(rogueCA, cred, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, addr, _ := startServer(t, ServerConfig{GSI: serverAuth, RequireGSI: true})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AuthGSI(rogue); err == nil {
		t.Fatal("wrong-CA client must be rejected")
	}
}

func TestAuthGSIUnconfigured(t *testing.T) {
	_, addr, _ := startServer(t, ServerConfig{})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	code, _, err := c.Cmd("AUTH GSI")
	if err != nil || code != 534 {
		t.Fatalf("AUTH GSI on plain server = %d, %v; want 534", code, err)
	}
	code, _, err = c.Cmd("AUTH TLS")
	if err != nil || code != 504 {
		t.Fatalf("AUTH TLS = %d, %v; want 504", code, err)
	}
}

func TestFeatAdvertisesExtensions(t *testing.T) {
	_, addr, _ := startServer(t, ServerConfig{})
	c := dialAndLogin(t, addr, ClientConfig{})
	code, msg, err := c.Cmd("FEAT")
	if err != nil || code != 211 {
		t.Fatal(err)
	}
	for _, feat := range []string{"MODE E", "PARALLEL", "ERET", "SBUF", "SPAS", "AUTH GSI"} {
		if !strings.Contains(msg, feat) {
			t.Fatalf("FEAT missing %q:\n%s", feat, msg)
		}
	}
}

func TestSBUF(t *testing.T) {
	_, addr, payload := startServer(t, ServerConfig{})
	c := dialAndLogin(t, addr, ClientConfig{Parallelism: 2, TCPBuffer: 128 * 1024})
	got, err := c.Get("/data/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("SBUF transfer mismatch")
	}
	code, _, err := c.Cmd("SBUF -5")
	if err != nil || code != 501 {
		t.Fatalf("SBUF -5 = %d, %v", code, err)
	}
}

func TestOPTSValidation(t *testing.T) {
	_, addr, _ := startServer(t, ServerConfig{})
	c := dialAndLogin(t, addr, ClientConfig{})
	code, _, err := c.Cmd("OPTS RETR Parallelism=0;")
	if err != nil || code != 501 {
		t.Fatalf("parallelism 0 = %d, %v", code, err)
	}
	code, _, err = c.Cmd("OPTS RETR Nothing=1;")
	if err != nil || code != 501 {
		t.Fatalf("unknown opt = %d, %v", code, err)
	}
	code, _, err = c.Cmd("OPTS MLST foo")
	if err != nil || code != 501 {
		t.Fatalf("OPTS MLST = %d, %v", code, err)
	}
}

func TestParseParallelism(t *testing.T) {
	n, err := parseParallelism("Parallelism=4,4,4;")
	if err != nil || n != 4 {
		t.Fatalf("parse = %d, %v", n, err)
	}
	n, err = parseParallelism("parallelism=16")
	if err != nil || n != 16 {
		t.Fatalf("parse lowercase = %d, %v", n, err)
	}
	for _, bad := range []string{"", "Parallelism=;", "Parallelism=x", "Parallelism=-1;"} {
		if _, err := parseParallelism(bad); err == nil {
			t.Fatalf("parseParallelism(%q) should fail", bad)
		}
	}
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", ClientConfig{Parallelism: -1}); err == nil {
		t.Fatal("negative parallelism should be rejected")
	}
	if _, err := Dial("127.0.0.1:1", ClientConfig{BlockSize: -1}); err == nil {
		t.Fatal("negative block size should be rejected")
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Fatal("missing store should be rejected")
	}
	st := NewMemStore()
	if _, err := NewServer(ServerConfig{Store: st, Stripes: -1}); err == nil {
		t.Fatal("negative stripes should be rejected")
	}
	if _, err := NewServer(ServerConfig{Store: st, RequireGSI: true}); err == nil {
		t.Fatal("RequireGSI without GSI should be rejected")
	}
}

// Property: MODE E parallel round trips over real sockets preserve
// arbitrary content.
func TestPropertyParallelSocketRoundTrip(t *testing.T) {
	srv, addr, _ := startServer(t, ServerConfig{})
	f := func(seed int64, sizeRaw uint16, pRaw uint8) bool {
		size := int(sizeRaw)%100000 + 1
		p := int(pRaw)%6 + 1
		payload := make([]byte, size)
		rand.New(rand.NewSource(seed)).Read(payload)
		c, err := Dial(addr, ClientConfig{Parallelism: p, Timeout: 5 * time.Second})
		if err != nil {
			return false
		}
		defer c.Close()
		if err := c.Login("u", "p"); err != nil {
			return false
		}
		if err := c.Setup(); err != nil {
			return false
		}
		if p == 1 {
			if err := c.UseModeE(); err != nil {
				return false
			}
		}
		if err := c.Put("/prop/f.bin", payload); err != nil {
			return false
		}
		got, err := c.Get("/prop/f.bin")
		if err != nil {
			return false
		}
		if err := c.Quit(); err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
	_ = srv
}

func TestERETBadArgs(t *testing.T) {
	_, addr, _ := startServer(t, ServerConfig{})
	c := dialAndLogin(t, addr, ClientConfig{})
	for _, cmd := range []string{
		"ERET nonsense",
		"ERET P 1 2",
		"ERET P x y /p",
		"ERET P -1 5 /p",
	} {
		code, _, err := c.Cmd(cmd)
		if err != nil || code != 501 {
			t.Fatalf("%q = %d, %v; want 501", cmd, code, err)
		}
	}
	// ERET on a missing file.
	code, _, err := c.Cmd("ERET P 0 1 /missing")
	if err != nil || code != 550 {
		t.Fatalf("ERET missing = %d, %v; want 550", code, err)
	}
}

// TestUseStreamModeSwitchBack: MODE S after MODE E puts the session back
// in stream mode, so a plain RETR moves the file over one connection.
func TestUseStreamModeSwitchBack(t *testing.T) {
	_, addr, payload := startServer(t, ServerConfig{})
	c := dialAndLogin(t, addr, ClientConfig{Parallelism: 4})
	if !c.ModeE() {
		t.Fatal("setup should have enabled MODE E")
	}
	if _, err := c.Expect(200, "MODE S"); err != nil {
		t.Fatal(err)
	}
	// The client still thinks in MODE E, so the stream is read by hand.
	pasv, err := c.Passive()
	if err != nil {
		t.Fatal(err)
	}
	conns, err := c.dialData([]string{pasv})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(conns)
	if _, err := c.Expect(150, "RETR /data/big.bin"); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conns[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.expectFinal(226); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("stream-mode content mismatch after switch back")
	}
}

func TestModeXRejected(t *testing.T) {
	_, addr, _ := startServer(t, ServerConfig{})
	c := dialAndLogin(t, addr, ClientConfig{})
	code, _, err := c.Cmd("MODE X")
	if err != nil || code != 504 {
		t.Fatalf("MODE X = %d, %v; want 504", code, err)
	}
}

func TestSPASReissueReplacesListeners(t *testing.T) {
	_, addr, payload := startServer(t, ServerConfig{Stripes: 2})
	c := dialAndLogin(t, addr, ClientConfig{Parallelism: 1})
	if err := c.UseModeE(); err != nil {
		t.Fatal(err)
	}
	// First SPAS, then immediately a second: the first listeners must be
	// replaced, and a striped get against the fresh set still works.
	if code, _, err := c.Cmd("SPAS"); err != nil || code != 229 {
		t.Fatalf("first SPAS = %d, %v", code, err)
	}
	got, err := c.GetStriped("/data/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("striped content mismatch after SPAS reissue")
	}
}

func TestXferlogModeE(t *testing.T) {
	var logBuf bytes.Buffer
	store := NewMemStore()
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(payload)
	if err := store.Put("/data/f.bin", payload); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Store: store, TransferLog: &logBuf})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dialAndLogin(t, addr, ClientConfig{Parallelism: 4})
	if _, err := c.Get("/data/f.bin"); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("/up/g.bin", payload[:1000]); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("xferlog lines = %d:\n%s", len(lines), logBuf.String())
	}
	if !strings.Contains(lines[0], "/data/f.bin") || !strings.Contains(lines[0], " o a ") {
		t.Fatalf("MODE E download line: %s", lines[0])
	}
	if !strings.Contains(lines[1], "/up/g.bin") || !strings.Contains(lines[1], " i a ") {
		t.Fatalf("MODE E upload line: %s", lines[1])
	}
}

// TestTimedOutAcceptFreesListener: after a data accept times out (the
// client never connected), the next transfer on the same PASV listener,
// or the same SPAS stripes, must get the connection the client dials for
// it — nothing from the failed wait may still be parked in Accept.
func TestTimedOutAcceptFreesListener(t *testing.T) {
	for _, striped := range []bool{false, true} {
		_, addr, payload := startServer(t, ServerConfig{DataTimeout: 100 * time.Millisecond, Stripes: 2})
		c := dialAndLogin(t, addr, ClientConfig{Timeout: 2 * time.Second})
		var addrs []string
		var err error
		if striped {
			if err := c.UseModeE(); err != nil {
				t.Fatal(err)
			}
			addrs, err = c.spas()
		} else {
			var a string
			a, err = c.Passive()
			addrs = []string{a}
		}
		if err != nil {
			t.Fatal(err)
		}
		if code, _, err := c.Cmd("RETR /data/big.bin"); err != nil || code != 150 {
			t.Fatalf("striped=%v: first RETR = %d, %v", striped, code, err)
		}
		if code, _, err := c.readReply(); err != nil || code != 425 {
			t.Fatalf("striped=%v: unconnected RETR = %d, %v; want 425", striped, code, err)
		}
		conns, err := c.dialData(addrs)
		if err != nil {
			t.Fatal(err)
		}
		for _, cn := range conns {
			if err := cn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]byte, len(payload))
		if _, err := c.transfer(conns, "RETR /data/big.bin", byteWriterAt{got}, nil); err != nil {
			t.Fatalf("striped=%v: transfer after a timed-out accept: %v", striped, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("striped=%v: content mismatch", striped)
		}
	}
}
