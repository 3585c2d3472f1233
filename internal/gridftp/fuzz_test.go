package gridftp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/gsi"
)

// The fuzz targets below cover every parser the socket code runs on bytes
// it did not write. Seed corpora live in testdata/fuzz/<target>/, so a
// plain `go test` replays them; `go test -fuzz '^FuzzX$'` explores.

// FuzzReadReply: the client's reply parser, multi-line replies included.
func FuzzReadReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := net.Pipe()
		defer a.Close()
		go func() {
			b.Write(data) // fails once the reader has what it needs and closes
			b.Close()
		}()
		c := &Client{conn: a, r: bufio.NewReader(a), cfg: ClientConfig{Timeout: 5 * time.Second}}
		code, msg, err := c.readReply()
		if err != nil {
			return
		}
		if code < 100 || string(data[:3]) != strconv.Itoa(code) || (data[3] != ' ' && data[3] != '-') {
			t.Fatalf("accepted %q as code %d", data, code)
		}
		if data[3] == '-' && !bytes.Contains(data, []byte("\n"+string(data[:3])+" ")) {
			t.Fatalf("multi-line reply %q ended without its terminator (msg %q)", data, msg)
		}
	})
}

// fuzzFile is the one file the fuzzed sessions serve.
var fuzzFile = func() []byte {
	b := make([]byte, 1000)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}()

// runSession feeds script to a server session over net.Pipe and returns
// every line the server wrote. A pipe has no host address, so PASV and
// SPAS fail and no listener is ever opened; callers skip PORT, so nothing
// is dialed either. The trailing QUITs outlast an AUTH GSI handshake,
// which reads at most two lines.
func runSession(t *testing.T, script string) []string {
	st := NewMemStore()
	if err := st.Put("/data/f.bin", fuzzFile); err != nil {
		t.Fatal(err)
	}
	ca, err := gsi.NewCA([]byte("fuzz-vo"))
	if err != nil {
		t.Fatal(err)
	}
	cred, err := ca.Issue("/CN=gridftpd")
	if err != nil {
		t.Fatal(err)
	}
	auth, err := gsi.NewAuthenticator(ca, cred, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Store: st, GSI: auth, Stripes: 2, DataTimeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cli, conn := net.Pipe()
	defer cli.Close()
	done := make(chan struct{})
	go func() {
		srv.serveConn(conn)
		close(done)
	}()
	out := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(cli)
		out <- b
	}()
	cli.Write([]byte(script + "\r\nQUIT\r\nQUIT\r\nQUIT\r\n")) // fails if the session quit early
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("session hung on %q", script)
	}
	return strings.Split(strings.TrimSuffix(string(<-out), "\n"), "\n")
}

var (
	replyLine = regexp.MustCompile(`^\d{3}[ -]`)
	// gsiLine is a GSI handshake line: in-band on the control channel but
	// not an FTP reply.
	gsiLine = regexp.MustCompile(`^GSI/1 `)
)

// replies checks that every line a session wrote is a well-formed reply
// line — a multi-line reply's middle lines start with a space — and
// returns the reply codes in order.
func replies(t *testing.T, lines []string) []int {
	var codes []int
	open := ""
	for _, l := range lines {
		l = strings.TrimSuffix(l, "\r")
		switch {
		case open != "" && strings.HasPrefix(l, open+" "):
			open = ""
		case open != "":
			if !strings.HasPrefix(l, " ") {
				t.Fatalf("multi-line %s reply has middle line %q", open, l)
			}
		case gsiLine.MatchString(l):
		case replyLine.MatchString(l):
			code, _ := strconv.Atoi(l[:3])
			codes = append(codes, code)
			if l[3] == '-' {
				open = l[:3]
			}
		default:
			t.Fatalf("malformed reply line %q in %q", l, lines)
		}
	}
	if open != "" {
		t.Fatalf("multi-line %s reply never ended", open)
	}
	return codes
}

// FuzzSession: command-line split and dispatch on a live session. Any
// script must leave the server alive, answering in well-formed replies.
func FuzzSession(f *testing.F) {
	f.Fuzz(func(t *testing.T, script string) {
		upper := strings.ToUpper(script)
		if strings.Contains(upper, "PORT") {
			t.Skip("PORT makes the server dial out")
		}
		if codes := replies(t, runSession(t, script)); len(codes) == 0 || codes[0] != 220 {
			t.Fatalf("no banner: %v", codes)
		}
	})
}

// FuzzRangeArgs: the argument form of ERET (P off len path), each reply
// judged against an independent reading of the arguments. CKSM and ESTO
// take the same fields and must answer 502 whatever they are: the server
// no longer implements either.
func FuzzRangeArgs(f *testing.F) {
	f.Fuzz(func(t *testing.T, word, off, length string) {
		if strings.ContainsAny(word+off+length, " \n") {
			t.Skip("a space or line break changes the field count")
		}
		const path = " /data/f.bin"
		lines := runSession(t, strings.Join([]string{
			"USER u", "PASS p",
			"ERET " + word + " " + off + " " + length + path,
			"CKSM " + word + " " + off + " " + length + path,
			"ESTO " + word + " " + off + path,
		}, "\r\n"))
		codes := replies(t, lines)
		o, oerr := strconv.ParseInt(off, 10, 64)
		n, nerr := strconv.ParseInt(length, 10, 64)
		size := int64(len(fuzzFile))
		want := []int{220, 331, 230}
		switch {
		case !strings.EqualFold(word, "P") || oerr != nil || nerr != nil || o < 0 || n < 0:
			want = append(want, 501)
		case o > size || n > size-o:
			want = append(want, 554)
		default:
			want = append(want, 150, 425) // no data connection to open
		}
		want = append(want, 502, 502, 221)
		if fmt.Sprint(codes) != fmt.Sprint(want) {
			t.Fatalf("replies %v, want %v:\n%s", codes, want, strings.Join(lines, "\n"))
		}
	})
}

// FuzzXferlog: whatever user name and path a client sends, its transfer's
// xferlog record is one line of the format's 18 fields. The path (as the
// server resolves it) and the user are one field each, with every byte up
// to the space and DEL written as '_', and every other field is what the
// transfer makes it.
func FuzzXferlog(f *testing.F) {
	at := time.Date(2005, 7, 4, 12, 0, 0, 0, time.UTC)
	underscored := func(s string) string {
		var b strings.Builder
		for i := 0; i < len(s); i++ {
			if c := s[i]; c > ' ' && c != 0x7f {
				b.WriteByte(c)
			} else {
				b.WriteByte('_')
			}
		}
		return b.String()
	}
	f.Fuzz(func(t *testing.T, user, arg string, n int64, upload bool) {
		var log bytes.Buffer
		srv, err := NewServer(ServerConfig{Store: NewMemStore(), TransferLog: &log, Clock: func() time.Time { return at }})
		if err != nil {
			t.Fatal(err)
		}
		conn, peer := net.Pipe()
		defer conn.Close()
		defer peer.Close()
		s := &session{srv: srv, conn: conn, user: user}
		dir := byte('o')
		if upload {
			dir = 'i'
		}
		path := s.resolve(arg)
		s.logTransfer(at, n, path, dir)
		line, ok := strings.CutSuffix(log.String(), "\n")
		if !ok || strings.Contains(line, "\n") {
			t.Fatalf("record %q is not one line", log.String())
		}
		if user == "" {
			user = "?"
		}
		want := []string{"Mon", "Jul", "4", "12:00:00", "2005", "1", "pipe", strconv.FormatInt(n, 10),
			underscored(path), "b", "_", string(dir), "a", underscored(user), "ftp", "0", "*", "c"}
		got := strings.FieldsFunc(line, func(r rune) bool { return r <= ' ' })
		if !slices.Equal(got, want) {
			t.Fatalf("record %q splits into %d fields %q, want %q", line, len(got), got, want)
		}
	})
}

// FuzzPasvAddr: an h1,…,p2 spec the parser accepts formats back to an
// address that parses to the same place, and every IPv4 address and port
// round-trips through the formatter.
func FuzzPasvAddr(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, ip uint32, port uint16) {
		if addr, err := parsePasvAddr(spec); err == nil {
			back, err := formatAddr(addr)
			if err != nil {
				t.Fatalf("parsed %q to %q, which does not format: %v", spec, addr, err)
			}
			if again, err := parsePasvAddr(back); err != nil || again != addr {
				t.Fatalf("%q -> %q -> %q -> %q, %v", spec, addr, back, again, err)
			}
		}
		var v4 [4]byte
		binary.BigEndian.PutUint32(v4[:], ip)
		addr := net.JoinHostPort(net.IP(v4[:]).String(), strconv.Itoa(int(port)))
		spec, err := formatAddr(addr)
		if err != nil {
			t.Fatalf("formatAddr(%q): %v", addr, err)
		}
		if back, err := parsePasvAddr(spec); err != nil || back != addr {
			t.Fatalf("%q -> %q -> %q, %v", addr, spec, back, err)
		}
	})
}

// FuzzBlock: ReadBlock never accepts a payload over MaxBlockLen, and any
// block it accepts re-encodes to exactly the bytes it read.
func FuzzBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, err := ReadBlock(bytes.NewReader(raw))
		if len(raw) >= HeaderLen && binary.BigEndian.Uint64(raw[9:17]) > MaxBlockLen && err == nil {
			t.Fatalf("accepted a %d-byte block", binary.BigEndian.Uint64(raw[9:17]))
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBlock(&buf, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), raw[:HeaderLen+len(b.Payload)]) {
			t.Fatalf("re-encoded %x, read %x", buf.Bytes(), raw[:HeaderLen+len(b.Payload)])
		}
	})
}

// FuzzReceiveBlocks: one or two MODE E data channels drained into a
// MemStore file. No block may open a hole of more than MaxBlockLen past
// the file's end, so the file never outgrows what the input carries by
// more than that per block. One channel's writes land in order, so its
// file, byte count and verdict must equal a plain sequential replay.
func FuzzReceiveBlocks(f *testing.F) {
	f.Fuzz(func(t *testing.T, ch0, ch1 []byte) {
		in := int64(len(ch0) + len(ch1))
		if in > 256 {
			t.Skip("every block may open a 16 MiB hole; keep the allocation small")
		}
		st := NewMemStore()
		file, err := st.Create("/in")
		if err != nil {
			t.Fatal(err)
		}
		conns := []io.Reader{bytes.NewReader(ch0)}
		if len(ch1) > 0 {
			conns = append(conns, bytes.NewReader(ch1))
		}
		total, _, _, rerr := ReceiveBlocks(conns, file)
		if total > in || file.Size() > total+in/HeaderLen*MaxBlockLen {
			t.Fatalf("%d input bytes wrote %d payload bytes into a %d-byte file", in, total, file.Size())
		}
		if len(ch1) > 0 {
			return
		}
		var want []byte
		var wantTotal int64
		wantErr := false
		for r := bytes.NewReader(ch0); ; {
			b, err := ReadBlock(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				wantErr = true
				break
			}
			if n := uint64(len(b.Payload)); n > 0 {
				if b.Offset > math.MaxInt64-n || b.Offset > uint64(len(want))+MaxBlockLen {
					wantErr = true
					break
				}
				if end := b.Offset + n; end > uint64(len(want)) {
					want = append(want, make([]byte, end-uint64(len(want)))...)
				}
				copy(want[b.Offset:], b.Payload)
				wantTotal += int64(n)
			}
			if b.EOD() {
				break
			}
		}
		got, err := st.Get("/in")
		if err != nil {
			t.Fatal(err)
		}
		if (rerr != nil) != wantErr || total != wantTotal || !bytes.Equal(got, want) {
			t.Fatalf("received %d bytes into %d (err %v), replay wrote %d into %d (err %v)",
				total, len(got), rerr, wantTotal, len(want), wantErr)
		}
	})
}

// FuzzParseParallelism: an accepted OPTS argument names at least one
// channel, and the client's own OPTS form reads back as sent.
func FuzzParseParallelism(f *testing.F) {
	f.Fuzz(func(t *testing.T, arg string, p int) {
		if n, err := parseParallelism(arg); err == nil && n < 1 {
			t.Fatalf("parseParallelism(%q) = %d", arg, n)
		}
		if p < 1 {
			return
		}
		if n, err := parseParallelism(fmt.Sprintf("Parallelism=%d,%d,%d;", p, p, p)); err != nil || n != p {
			t.Fatalf("client form for %d read back as %d, %v", p, n, err)
		}
	})
}

// FuzzParseSpasReply: every address taken from a 229 reply is dialable
// IPv4 host:port that formats back to a spec parsing to itself.
func FuzzParseSpasReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, msg string) {
		addrs, err := parseSpasReply(msg)
		if err != nil {
			return
		}
		if len(addrs) == 0 {
			t.Fatalf("no addresses and no error for %q", msg)
		}
		for _, a := range addrs {
			spec, err := formatAddr(a)
			if err != nil {
				t.Fatalf("stripe %q from %q does not format: %v", a, msg, err)
			}
			if back, err := parsePasvAddr(spec); err != nil || back != a {
				t.Fatalf("stripe %q -> %q -> %q, %v", a, spec, back, err)
			}
		}
	})
}
