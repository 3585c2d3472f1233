package gridftp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"github.com/hpclab/datagrid/internal/gsi"
)

// ClientConfig tunes a client session, mirroring globus-url-copy's
// options.
type ClientConfig struct {
	// Timeout bounds each control and data operation; default 10s.
	Timeout time.Duration
	// Parallelism is the number of parallel TCP data channels (the -p
	// option). 0 or 1 means one channel. Values above 1 require MODE E.
	Parallelism int
	// BlockSize is the MODE E block payload size; default 64 KiB.
	BlockSize int
	// TCPBuffer, when non-zero, is negotiated with SBUF and applied to
	// data sockets (the -tcp-bs option).
	TCPBuffer int
}

// Client is a GridFTP (or plain FTP) control-channel client.
type Client struct {
	conn  net.Conn
	r     *bufio.Reader
	cfg   ClientConfig
	modeE bool
}

// Dial connects to a GridFTP (or plain FTP) server and consumes the 220
// banner.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("gridftp: negative parallelism %d", cfg.Parallelism)
	}
	if cfg.BlockSize < 0 || cfg.TCPBuffer < 0 {
		return nil, errors.New("gridftp: negative client option")
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 1
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	conn, err := net.DialTimeout("tcp", addr, cfg.Timeout)
	if err != nil {
		return nil, fmt.Errorf("gridftp: dial %s: %w", addr, err)
	}
	c := &Client{conn: conn, r: bufio.NewReader(conn), cfg: cfg}
	code, msg, err := c.readReply()
	if err != nil {
		_ = conn.Close() // the banner error is the one to report
		return nil, err
	}
	if code != 220 {
		_ = conn.Close() // the banner error is the one to report
		return nil, fmt.Errorf("gridftp: unexpected banner %d %s", code, msg)
	}
	return c, nil
}

// Close tears down the control connection without QUIT.
func (c *Client) Close() error { return c.conn.Close() }

// readReply reads one (possibly multi-line) server reply.
func (c *Client) readReply() (int, string, error) {
	//gridlint:wallclock-ok real socket read deadline on the live control connection
	if err := c.conn.SetReadDeadline(time.Now().Add(c.cfg.Timeout)); err != nil {
		return 0, "", err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return 0, "", fmt.Errorf("gridftp: reading reply: %w", err)
	}
	line = strings.TrimRight(line, "\r\n")
	if len(line) < 4 || (line[3] != ' ' && line[3] != '-') {
		return 0, "", fmt.Errorf("gridftp: malformed reply %q", line)
	}
	code, err := strconv.Atoi(line[:3])
	if err != nil || code < 100 {
		return 0, "", fmt.Errorf("gridftp: bad reply code in %q", line)
	}
	msg := line[4:]
	if line[3] == '-' { // multi-line: read until the "NNN " terminator
		var sb strings.Builder
		sb.WriteString(msg)
		term := line[:3] + " "
		for {
			l, err := c.r.ReadString('\n')
			if err != nil {
				return 0, "", fmt.Errorf("gridftp: reading multiline reply: %w", err)
			}
			l = strings.TrimRight(l, "\r\n")
			sb.WriteByte('\n')
			if strings.HasPrefix(l, term) {
				sb.WriteString(l[4:])
				break
			}
			sb.WriteString(l)
		}
		msg = sb.String()
	}
	return code, msg, nil
}

// Cmd sends one command and reads the reply.
func (c *Client) Cmd(format string, args ...any) (int, string, error) {
	//gridlint:wallclock-ok real socket write deadline on the live control connection
	if err := c.conn.SetWriteDeadline(time.Now().Add(c.cfg.Timeout)); err != nil {
		return 0, "", err
	}
	if _, err := fmt.Fprintf(c.conn, format+"\r\n", args...); err != nil {
		return 0, "", fmt.Errorf("gridftp: sending command: %w", err)
	}
	return c.readReply()
}

// Expect sends a command and verifies the reply code.
func (c *Client) Expect(want int, format string, args ...any) (string, error) {
	code, msg, err := c.Cmd(format, args...)
	if err != nil {
		return "", err
	}
	if code != want {
		verb, _, _ := strings.Cut(fmt.Sprintf(format, args...), " ")
		return msg, fmt.Errorf("gridftp: %s: got %d %s, want %d", verb, code, msg, want)
	}
	return msg, nil
}

// expectFinal reads a pending reply — the 226 closing a transfer whose 150
// was already consumed — and checks its code.
func (c *Client) expectFinal(want int) (string, error) {
	code, msg, err := c.readReply()
	if err != nil {
		return "", err
	}
	if code != want {
		return msg, fmt.Errorf("gridftp: transfer finished with %d %s, want %d", code, msg, want)
	}
	return msg, nil
}

// Login authenticates with USER/PASS.
func (c *Client) Login(user, pass string) error {
	code, msg, err := c.Cmd("USER %s", user)
	if err != nil {
		return err
	}
	switch code {
	case 230:
		return nil
	case 331:
		_, err := c.Expect(230, "PASS %s", pass)
		return err
	default:
		return fmt.Errorf("gridftp: USER: %d %s", code, msg)
	}
}

// AuthGSI authenticates the control channel with the GSI handshake and
// returns the server's subject.
func (c *Client) AuthGSI(a *gsi.Authenticator) (string, error) {
	if a == nil {
		return "", errors.New("gridftp: nil authenticator")
	}
	if _, err := c.Expect(334, "AUTH GSI"); err != nil {
		return "", err
	}
	peer, err := a.Client(struct {
		io.Reader
		io.Writer
	}{c.r, c.conn})
	if err != nil {
		return "", err
	}
	if _, err := c.expectFinal(235); err != nil {
		return "", err
	}
	return peer, nil
}

// TypeImage switches to binary transfers.
func (c *Client) TypeImage() error {
	_, err := c.Expect(200, "TYPE I")
	return err
}

// Setup performs the standard post-login negotiation: binary type, MODE E
// when parallelism or explicit extended mode is wanted, OPTS parallelism
// and SBUF. Call after Login/AuthGSI.
func (c *Client) Setup() error {
	if err := c.TypeImage(); err != nil {
		return err
	}
	if c.cfg.Parallelism > 1 {
		if err := c.UseModeE(); err != nil {
			return err
		}
	}
	if c.cfg.TCPBuffer > 0 {
		if _, err := c.Expect(200, "SBUF %d", c.cfg.TCPBuffer); err != nil {
			return err
		}
	}
	return nil
}

// UseModeE switches the session to extended block mode.
func (c *Client) UseModeE() error {
	if _, err := c.Expect(200, "MODE E"); err != nil {
		return err
	}
	c.modeE = true
	p := c.cfg.Parallelism
	_, err := c.Expect(200, "OPTS RETR Parallelism=%d,%d,%d;", p, p, p)
	return err
}

// ModeE reports whether the session is in extended block mode.
func (c *Client) ModeE() bool { return c.modeE }

// Passive issues PASV and returns the dialable data address.
func (c *Client) Passive() (string, error) {
	msg, err := c.Expect(227, "PASV")
	if err != nil {
		return "", err
	}
	open := strings.IndexByte(msg, '(')
	close := strings.IndexByte(msg, ')')
	if open < 0 || close < 0 || close <= open {
		return "", fmt.Errorf("gridftp: unparseable PASV reply %q", msg)
	}
	return parsePasvAddr(msg[open+1 : close])
}

// Size returns the server-side size of a file. Downloads size their
// buffer by it, so a negative size is an error.
func (c *Client) Size(path string) (int64, error) {
	msg, err := c.Expect(213, "SIZE %s", path)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(strings.TrimSpace(msg), 10, 64)
	if err == nil && n < 0 {
		err = fmt.Errorf("gridftp: negative size in %q", msg)
	}
	return n, err
}

// Quit logs out and closes the connection.
func (c *Client) Quit() error {
	_, err := c.Expect(221, "QUIT")
	cerr := c.conn.Close()
	if err != nil {
		return err
	}
	return cerr
}

// dialData opens one data connection per address, one after another, each
// with the negotiated TCP buffer.
func (c *Client) dialData(addrs []string) ([]net.Conn, error) {
	conns := make([]net.Conn, 0, len(addrs))
	for i, a := range addrs {
		conn, err := net.DialTimeout("tcp", a, c.cfg.Timeout)
		if err != nil {
			closeAll(conns)
			return nil, fmt.Errorf("gridftp: dialing data channel %d: %w", i, err)
		}
		setBuffers(conn, c.cfg.TCPBuffer)
		conns = append(conns, conn)
	}
	return conns, nil
}

// transfer runs one data command: PASV and one data connection per
// channel (unless the caller passes conns it dialed), cmd and its 150
// reply, the data moved, the close that ends every channel, and the 226
// reply. A download (dst set) lands in dst: a stream from its start, MODE
// E blocks at their own offsets. An upload sends src, in MODE E announced
// by OPTS STOR before cmd. It returns the bytes moved.
func (c *Client) transfer(conns []net.Conn, cmd string, dst io.WriterAt, src []byte) (int64, error) {
	if conns == nil {
		addr, err := c.Passive()
		if err != nil {
			return 0, err
		}
		addrs := []string{addr}
		for c.modeE && len(addrs) < c.cfg.Parallelism {
			addrs = append(addrs, addr)
		}
		if conns, err = c.dialData(addrs); err != nil {
			return 0, err
		}
	}
	defer closeAll(conns)
	if p := c.cfg.Parallelism; dst == nil && c.modeE {
		if _, err := c.Expect(200, "OPTS STOR Parallelism=%d,%d,%d;", p, p, p); err != nil {
			return 0, err
		}
	}
	if _, err := c.Expect(150, "%s", cmd); err != nil {
		return 0, err
	}
	var n int64
	var err error
	switch {
	case dst == nil && c.modeE:
		n, err = int64(len(src)), SendBlocks(conns, bytes.NewReader(src), 0, int64(len(src)), c.cfg.BlockSize)
	case dst == nil:
		n, err = io.Copy(conns[0], bytes.NewReader(src))
	case c.modeE:
		var announced, eods int
		n, announced, eods, err = ReceiveBlocks(conns, dst)
		if err == nil && announced > 0 && eods < announced {
			err = fmt.Errorf("incomplete: %d EODs of %d channels", eods, announced)
		}
	default:
		n, err = io.Copy(io.NewOffsetWriter(dst, 0), conns[0])
	}
	// Closing signals EOF to an upload's receiver; a failed close means
	// the transfer never terminated cleanly, so surface it.
	for _, d := range conns {
		if cerr := d.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close data connection: %w", cerr)
		}
	}
	// The final reply is read after a failure too, so the next command
	// gets its own; a refusal there says more than the data error.
	if _, ferr := c.expectFinal(226); ferr != nil {
		return n, ferr
	}
	if err != nil {
		return n, fmt.Errorf("gridftp: data transfer: %w", err)
	}
	return n, nil
}

// byteWriterAt adapts a fixed buffer to io.WriterAt with bounds checking.
type byteWriterAt struct {
	buf []byte
}

func (b byteWriterAt) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(b.buf)) || int64(len(p)) > int64(len(b.buf))-off {
		return 0, fmt.Errorf("gridftp: write (%d,%d) outside buffer of %d", off, len(p), len(b.buf))
	}
	copy(b.buf[off:], p)
	return len(p), nil
}

// Get downloads a whole file, using the session's mode and parallelism.
func (c *Client) Get(path string) ([]byte, error) {
	return c.get(path, false)
}

// GetStriped downloads a file over the server's striped data movers
// (SPAS) — the paper's future-work feature #1. It requires MODE E.
func (c *Client) GetStriped(path string) ([]byte, error) {
	if !c.modeE {
		return nil, errors.New("gridftp: striped transfer requires MODE E")
	}
	return c.get(path, true)
}

// get downloads a whole file over PASV, or over the SPAS stripes.
func (c *Client) get(path string, striped bool) ([]byte, error) {
	size, err := c.Size(path)
	if err != nil {
		return nil, err
	}
	var conns []net.Conn
	if striped {
		addrs, err := c.spas()
		if err != nil {
			return nil, err
		}
		if conns, err = c.dialData(addrs); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, size)
	n, err := c.transfer(conns, "RETR "+path, byteWriterAt{buf}, nil)
	if err != nil {
		return nil, err
	}
	return buf[:min(n, size)], nil // a stream may end short; MODE E blocks may overlap
}

// GetPartial downloads the byte range [offset, offset+length) with ERET —
// GridFTP's partial file transfer.
func (c *Client) GetPartial(path string, offset, length int64) ([]byte, error) {
	if offset < 0 || length < 0 {
		return nil, errors.New("gridftp: negative partial range")
	}
	buf := make([]byte, length)
	// MODE E blocks carry absolute offsets: shift them back by the region
	// start. A stream starts at the region's first byte.
	dst := io.WriterAt(byteWriterAt{buf})
	if c.modeE {
		dst = io.NewOffsetWriter(dst, -offset)
	}
	n, err := c.transfer(nil, fmt.Sprintf("ERET P %d %d %s", offset, length, path), dst, nil)
	if err != nil {
		return nil, err
	}
	return buf[:min(n, length)], nil
}

// Put uploads data to path, using the session's mode and parallelism.
func (c *Client) Put(path string, data []byte) error {
	_, err := c.transfer(nil, "STOR "+path, nil, data)
	return err
}

// spas asks the server for its striped data movers' addresses.
func (c *Client) spas() ([]string, error) {
	msg, err := c.Expect(229, "SPAS")
	if err != nil {
		return nil, err
	}
	return parseSpasReply(msg)
}

// parseSpasReply extracts dialable addresses from the multiline 229 reply.
func parseSpasReply(msg string) ([]string, error) {
	var out []string
	for _, line := range strings.Split(msg, "\n") {
		line = strings.TrimSpace(line)
		if strings.Count(line, ",") == 5 {
			addr, err := parsePasvAddr(line)
			if err != nil {
				return nil, err
			}
			out = append(out, addr)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("gridftp: no stripe addresses in SPAS reply %q", msg)
	}
	return out, nil
}

// ThirdParty moves srcPath on the src server directly to dstPath on the
// dst server, with the client orchestrating both control channels and no
// data flowing through the client — GridFTP third-party transfer. Both
// sessions must be in the same mode; in MODE E the configured parallelism
// applies (src accepts what dst dials).
func ThirdParty(src *Client, srcPath string, dst *Client, dstPath string) error {
	if src == nil || dst == nil {
		return errors.New("gridftp: third-party needs two clients")
	}
	if src.modeE != dst.modeE {
		return errors.New("gridftp: third-party endpoints must use the same mode")
	}
	srcAddr, err := src.Passive()
	if err != nil {
		return err
	}
	spec, err := formatAddr(srcAddr)
	if err != nil {
		return err
	}
	if _, err := dst.Expect(200, "PORT %s", spec); err != nil {
		return err
	}
	if src.modeE {
		p := min(src.cfg.Parallelism, dst.cfg.Parallelism)
		if _, err := src.Expect(200, "OPTS RETR Parallelism=%d;", p); err != nil {
			return err
		}
		if _, err := dst.Expect(200, "OPTS STOR Parallelism=%d;", p); err != nil {
			return err
		}
	}
	return relayTransfer(src, srcPath, dst, dstPath)
}

// relayTransfer starts a server-to-server copy whose data channels are
// already arranged: the destination's STOR first (its 150 means it is
// connecting to the source), then the source's RETR, then both 226s.
func relayTransfer(src *Client, srcPath string, dst *Client, dstPath string) error {
	if _, err := dst.Expect(150, "STOR %s", dstPath); err != nil {
		return err
	}
	if _, err := src.Expect(150, "RETR %s", srcPath); err != nil {
		return err
	}
	if _, err := src.expectFinal(226); err != nil {
		return err
	}
	_, err := dst.expectFinal(226)
	return err
}
