// Package gridftp implements the repository's real wire protocol over TCP:
// a runnable RFC 959/3659 FTP subset — the baseline the paper measures
// GridFTP against (§4.1) — together with the GridFTP extensions the Globus
// project added to it (§2.1, §4.1-4.2): GSI authentication on the control
// channel, MODE E extended block mode whose 17-byte block headers (8 flag
// bits + 64-bit offset + 64-bit length) permit out-of-order arrival and
// therefore multiple parallel TCP data channels, partial file transfer
// (REST/ERET), third-party transfer between two servers, striped data
// transfer (the paper's future work #1), and TCP buffer negotiation (SBUF).
//
// One server speaks both: a session that never leaves MODE S is a plain
// FTP session. Reply texts are part of the wire contract, so errors raised
// by the FTP half keep their "ftp:" prefix — they reach clients verbatim
// in 4xx/5xx replies.
package gridftp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	gopath "path"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hpclab/datagrid/internal/gsi"
)

// ServerConfig configures a Server.
type ServerConfig struct {
	// Store is the filesystem served. Required.
	Store Store
	// GSI, when set, enables the AUTH GSI command; with RequireGSI the
	// server refuses USER/PASS logins.
	GSI *gsi.Authenticator
	// RequireGSI forces GSI authentication.
	RequireGSI bool
	// Stripes is the number of data movers SPAS exposes; default 4.
	Stripes int
	// DataTimeout bounds data-connection setup; default 10s.
	DataTimeout time.Duration
	// TransferLog, when set, receives one wu-ftpd xferlog-style line per
	// completed transfer (stream and MODE E alike), the era's standard
	// transfer audit trail.
	TransferLog io.Writer
	// Clock supplies transfer timing and xferlog timestamps; defaults to
	// time.Now. Override in tests or simulations for determinism.
	Clock func() time.Time
}

// Server is a GridFTP server bound to one listener.
type Server struct {
	cfg ServerConfig

	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// NewServer validates cfg and builds a server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("gridftp: server needs a store")
	}
	if cfg.Stripes == 0 {
		cfg.Stripes = 4
	}
	if cfg.Stripes < 0 {
		return nil, fmt.Errorf("gridftp: negative stripe count %d", cfg.Stripes)
	}
	if cfg.RequireGSI && cfg.GSI == nil {
		return nil, errors.New("gridftp: RequireGSI needs a GSI authenticator")
	}
	if cfg.DataTimeout == 0 {
		cfg.DataTimeout = 10 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Server{cfg: cfg, conns: make(map[net.Conn]bool)}, nil
}

// Listen binds the server to addr (e.g. "127.0.0.1:0") and starts serving
// in background goroutines. It returns the bound address.
func (srv *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("gridftp: listen %s: %w", addr, err)
	}
	srv.ln = ln
	srv.wg.Add(1)
	go srv.acceptLoop()
	return ln.Addr().String(), nil
}

func (srv *Server) acceptLoop() {
	defer srv.wg.Done()
	for {
		conn, err := srv.ln.Accept()
		if err != nil {
			return
		}
		srv.mu.Lock()
		if srv.closed {
			srv.mu.Unlock()
			_ = conn.Close() // server shutting down; nothing to report to
			return
		}
		srv.conns[conn] = true
		srv.mu.Unlock()
		srv.wg.Add(1)
		go func() {
			defer srv.wg.Done()
			srv.serveConn(conn)
			srv.mu.Lock()
			delete(srv.conns, conn)
			srv.mu.Unlock()
		}()
	}
}

// Close stops the listener and tears down active sessions.
func (srv *Server) Close() error {
	srv.mu.Lock()
	srv.closed = true
	for c := range srv.conns {
		_ = c.Close() // best-effort teardown of live sessions
	}
	srv.mu.Unlock()
	var err error
	if srv.ln != nil {
		err = srv.ln.Close()
	}
	srv.wg.Wait()
	return err
}

// session is one control connection's state.
type session struct {
	srv  *Server
	conn net.Conn
	r    *bufio.Reader

	user     string
	authed   bool
	mode     byte // 'S' stream (default) or 'E' extended block
	rest     int64
	quitting bool

	// Data-connection setup: a PASV listener or a PORT address; MODE E
	// transfers prefer SPAS stripe listeners.
	pasv     *net.TCPListener
	portAddr string
	spas     []*net.TCPListener

	// MODE E options: the OPTS RETR/STOR parallelism and the SBUF TCP
	// buffer size, 0 while unset.
	parallelism int
	sbuf        int
}

// dispatch runs one command through the command table — the RFC
// 959/3659 subset, then the GridFTP extensions — and reports whether the
// verb is known. A switch, unlike a package-level map of handlers, leaves
// the server unlinked from binaries that import this package only for
// its MODE E constants.
func (s *session) dispatch(verb, arg string) bool {
	switch verb {
	case "USER":
		handleUSER(s, arg)
	case "PASS":
		handlePASS(s)
	case "QUIT":
		s.reply(221, "goodbye")
		s.quitting = true
	case "SYST":
		s.reply(215, "UNIX Type: L8")
	case "NOOP":
		s.reply(200, "NOOP ok")
	case "TYPE":
		handleTYPE(s, arg)
	case "MODE":
		handleMODE(s, arg)
	case "PASV":
		handlePASV(s)
	case "PORT":
		handlePORT(s, arg)
	case "RETR":
		handleRETR(s, arg)
	case "STOR":
		handleSTOR(s, arg)
	case "SIZE":
		handleSIZE(s, arg)
	case "REST":
		handleREST(s, arg)
	case "FEAT":
		s.replyLines(211, "Features:", features, "End")
	case "PWD":
		s.reply(257, `"/" is the current directory`)
	case "ABOR":
		s.reply(226, "no transfer to abort")
	case "AUTH":
		handleAUTH(s, arg)
	case "OPTS":
		handleOPTS(s, arg)
	case "SBUF":
		handleSBUF(s, arg)
	case "ERET":
		handleERET(s, arg)
	case "SPAS":
		handleSPAS(s)
	default:
		return false
	}
	return true
}

// features is the FEAT reply body. Each line opens with a verb dispatch
// answers, except PARALLEL: GridFTP's name for OPTS RETR/STOR Parallelism.
var features = []string{"SIZE", "REST STREAM", "AUTH GSI", "MODE E", "PARALLEL", "ERET", "SBUF", "SPAS"}

func (srv *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	s := &session{srv: srv, conn: conn, r: bufio.NewReader(conn), mode: 'S'}
	defer func() {
		s.closePasv()
		closeAll(s.spas)
	}()
	s.reply(220, "datagrid GridFTP server ready")
	for !s.quitting {
		line, err := s.r.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			continue
		}
		verb, arg, _ := strings.Cut(line, " ")
		if !s.dispatch(strings.ToUpper(verb), arg) {
			s.reply(502, fmt.Sprintf("command %q not implemented", verb))
		}
	}
}

func (s *session) reply(code int, msg string) {
	fmt.Fprintf(s.conn, "%d %s\r\n", code, msg)
}

// replyLines sends a multi-line reply in RFC 959 format.
func (s *session) replyLines(code int, first string, middle []string, last string) {
	fmt.Fprintf(s.conn, "%d-%s\r\n", code, first)
	for _, l := range middle {
		fmt.Fprintf(s.conn, " %s\r\n", l)
	}
	fmt.Fprintf(s.conn, "%d %s\r\n", code, last)
}

// requireAuth replies 530 and returns false when the session has not
// logged in.
func (s *session) requireAuth() bool {
	if !s.authed {
		s.reply(530, "please login first")
	}
	return s.authed
}

// takeRest consumes the restart offset set by REST.
func (s *session) takeRest() int64 {
	r := s.rest
	s.rest = 0
	return r
}

// resolve interprets a command's path argument against the root, the
// one working directory every session has.
func (s *session) resolve(arg string) string {
	return gopath.Clean("/" + strings.TrimSpace(arg))
}

// logTransfer emits one xferlog-format line (wu-ftpd's transfer audit
// format): date, duration, remote host, bytes, path, type, direction,
// user. The path and the user are client-supplied, so each is written as
// one xferlogField and the line always splits into 18 fields. It is a
// no-op when no TransferLog is configured.
func (s *session) logTransfer(start time.Time, bytes int64, path string, direction byte) {
	w := s.srv.cfg.TransferLog
	if w == nil {
		return
	}
	now := s.srv.cfg.Clock()
	secs := int64(now.Sub(start).Seconds())
	if secs < 1 {
		secs = 1 // xferlog records whole seconds, minimum 1
	}
	host, _, err := net.SplitHostPort(s.conn.RemoteAddr().String())
	if err != nil {
		host = s.conn.RemoteAddr().String()
	}
	user := s.user
	if user == "" {
		user = "?"
	}
	fmt.Fprintf(w, "%s %d %s %d %s b _ %c a %s ftp 0 * c\n",
		now.Format("Mon Jan  2 15:04:05 2006"), secs, host, bytes, xferlogField(path), direction, xferlogField(user))
}

// xferlogField makes s one whitespace-free xferlog field: every byte up to
// and including the space, and DEL, is written as '_'.
func xferlogField(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c <= ' ' || c == 0x7f {
			b[i] = '_'
		}
	}
	return string(b)
}

// --- login and session state ---

func handleUSER(s *session, arg string) {
	if arg == "" {
		s.reply(501, "USER needs a name")
		return
	}
	s.user = arg
	s.reply(331, "password required for "+arg)
}

func handlePASS(s *session) {
	if s.user == "" {
		s.reply(503, "login with USER first")
		return
	}
	if s.srv.cfg.RequireGSI {
		s.reply(530, "login incorrect")
		return
	}
	s.authed = true
	s.reply(230, "user "+s.user+" logged in")
}

func handleAUTH(s *session, arg string) {
	if !strings.EqualFold(arg, "GSI") && !strings.EqualFold(arg, "GSSAPI") {
		s.reply(504, "only AUTH GSI supported")
		return
	}
	if s.srv.cfg.GSI == nil {
		s.reply(534, "GSI not configured on this server")
		return
	}
	s.reply(334, "proceed with GSI handshake")
	peer, err := s.srv.cfg.GSI.Server(struct {
		io.Reader
		io.Writer
	}{s.r, s.conn})
	if err != nil {
		s.reply(535, "GSI authentication failed")
		return
	}
	s.user, s.authed = peer, true
	s.reply(235, "GSI authentication successful for "+peer)
}

// handleTYPE accepts types A and I; every transfer moves the file's bytes
// unchanged, so the type is acknowledged and not kept.
func handleTYPE(s *session, arg string) {
	switch t := strings.ToUpper(arg); t {
	case "A", "I":
		s.reply(200, "type set to "+t)
	default:
		s.reply(504, "only types A and I supported")
	}
}

func handleMODE(s *session, arg string) {
	switch strings.ToUpper(arg) {
	case "S":
		s.mode = 'S'
		s.reply(200, "mode set to S")
	case "E":
		s.mode = 'E'
		s.reply(200, "mode set to E (extended block)")
	default:
		s.reply(504, "only modes S and E supported")
	}
}

// parseParallelism extracts the first integer of "Parallelism=a,b,c;".
func parseParallelism(arg string) (int, error) {
	i := strings.Index(strings.ToLower(arg), "parallelism=")
	if i < 0 {
		return 0, fmt.Errorf("gridftp: no Parallelism option in %q", arg)
	}
	rest := arg[i+len("parallelism="):]
	end := strings.IndexAny(rest, ",;")
	if end < 0 {
		end = len(rest)
	}
	n, err := strconv.Atoi(strings.TrimSpace(rest[:end]))
	if err != nil || n < 1 {
		return 0, fmt.Errorf("gridftp: bad parallelism %q", rest)
	}
	return n, nil
}

func handleOPTS(s *session, arg string) {
	verb, rest, _ := strings.Cut(arg, " ")
	switch strings.ToUpper(verb) {
	case "RETR", "STOR":
		n, err := parseParallelism(rest)
		if err != nil {
			s.reply(501, err.Error())
			return
		}
		s.parallelism = n
		s.reply(200, fmt.Sprintf("parallelism set to %d", n))
	default:
		s.reply(501, "OPTS target not supported")
	}
}

func handleSBUF(s *session, arg string) {
	n, err := strconv.Atoi(strings.TrimSpace(arg))
	if err != nil || n <= 0 {
		s.reply(501, "bad buffer size")
		return
	}
	s.sbuf = n
	s.reply(200, fmt.Sprintf("TCP buffer set to %d", n))
}

func handleREST(s *session, arg string) {
	if !s.requireAuth() {
		return
	}
	n, err := strconv.ParseInt(arg, 10, 64)
	if err != nil || n < 0 {
		s.reply(501, "bad restart offset")
		return
	}
	s.rest = n
	s.reply(350, fmt.Sprintf("restarting at %d, send transfer command", n))
}

// --- files ---

func handleSIZE(s *session, arg string) {
	if !s.requireAuth() {
		return
	}
	n, err := s.srv.cfg.Store.Size(s.resolve(arg))
	if err != nil {
		s.reply(550, err.Error())
		return
	}
	s.reply(213, strconv.FormatInt(n, 10))
}

// --- data connections ---

// formatAddr renders a "host:port" string as h1,h2,h3,h4,p1,p2: the form
// of the 227 reply, the SPAS lines and the PORT argument.
func formatAddr(hostport string) (string, error) {
	host, portStr, err := net.SplitHostPort(hostport)
	if err != nil {
		return "", err
	}
	ip := net.ParseIP(host).To4()
	if ip == nil {
		return "", fmt.Errorf("ftp: passive mode needs IPv4, got %q", host)
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d,%d,%d,%d,%d,%d", ip[0], ip[1], ip[2], ip[3], port/256, port%256), nil
}

// parsePasvAddr parses the h1,h2,h3,h4,p1,p2 form into host:port.
func parsePasvAddr(spec string) (string, error) {
	parts := strings.Split(strings.TrimSpace(spec), ",")
	if len(parts) != 6 {
		return "", fmt.Errorf("ftp: bad address %q", spec)
	}
	var nums [6]int
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 || n > 255 {
			return "", fmt.Errorf("ftp: bad address component %q", p)
		}
		nums[i] = n
	}
	return fmt.Sprintf("%d.%d.%d.%d:%d", nums[0], nums[1], nums[2], nums[3], nums[4]*256+nums[5]), nil
}

// listen opens a data listener on the control connection's local address.
func (s *session) listen() (*net.TCPListener, error) {
	host, _, err := net.SplitHostPort(s.conn.LocalAddr().String())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return nil, err
	}
	return ln.(*net.TCPListener), nil
}

func (s *session) closePasv() {
	if s.pasv != nil {
		_ = s.pasv.Close() // listener teardown; accept errors already surfaced
		s.pasv = nil
	}
}

func handlePASV(s *session) {
	if !s.requireAuth() {
		return
	}
	s.closePasv()
	ln, err := s.listen()
	if err != nil {
		s.reply(425, "cannot open passive port: "+err.Error())
		return
	}
	spec, err := formatAddr(ln.Addr().String())
	if err != nil {
		_ = ln.Close() // unusable listener; the format error is the report
		s.reply(425, err.Error())
		return
	}
	s.pasv = ln
	s.reply(227, "Entering Passive Mode ("+spec+")")
}

func handlePORT(s *session, arg string) {
	if !s.requireAuth() {
		return
	}
	addr, err := parsePasvAddr(arg)
	if err != nil {
		s.reply(501, err.Error())
		return
	}
	s.closePasv()
	s.portAddr = addr
	s.reply(200, "PORT command successful")
}

func handleSPAS(s *session) {
	if !s.requireAuth() {
		return
	}
	closeAll(s.spas)
	s.spas = nil
	lns := make([]*net.TCPListener, 0, s.srv.cfg.Stripes)
	specs := make([]string, 0, s.srv.cfg.Stripes)
	for i := 0; i < s.srv.cfg.Stripes; i++ {
		ln, err := s.listen()
		if err != nil {
			closeAll(lns)
			s.reply(425, "cannot open stripe listener: "+err.Error())
			return
		}
		lns = append(lns, ln)
		spec, err := formatAddr(ln.Addr().String())
		if err != nil {
			closeAll(lns)
			s.reply(425, err.Error())
			return
		}
		specs = append(specs, spec)
	}
	s.spas = lns
	s.replyLines(229, "Entering Striped Passive Mode", specs, "End")
}

// accept waits up to the data timeout for one connection on ln. The
// deadline is the listener's own, so no goroutine outlives a timed-out
// wait to swallow the connection meant for the next transfer.
func (s *session) accept(ln *net.TCPListener) (net.Conn, error) {
	//gridlint:wallclock-ok bounds a real Accept on a live socket, not simulated time
	if err := ln.SetDeadline(time.Now().Add(s.srv.cfg.DataTimeout)); err != nil {
		return nil, err
	}
	c, err := ln.Accept()
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return nil, errors.New("ftp: timed out waiting for data connection")
	}
	return c, err
}

// channelCount is the number of data channels a transfer uses: one in
// stream mode, else one per SPAS listener, or the OPTS parallelism.
func (s *session) channelCount() int {
	switch {
	case s.mode != 'E':
		return 1
	case len(s.spas) > 0:
		return len(s.spas)
	}
	return max(s.parallelism, 1)
}

// dataChannels opens a transfer's data connections: in MODE E one per
// SPAS listener when SPAS was issued; otherwise each is accepted on the
// PASV listener or dialed to the PORT address.
func (s *session) dataChannels() ([]net.Conn, error) {
	n := s.channelCount()
	conns := make([]net.Conn, 0, n)
	for i := 0; i < n; i++ {
		var c net.Conn
		var err error
		switch {
		case s.mode == 'E' && len(s.spas) > 0:
			c, err = s.accept(s.spas[i])
		case s.pasv != nil:
			c, err = s.accept(s.pasv)
		case s.portAddr != "":
			c, err = net.DialTimeout("tcp", s.portAddr, s.srv.cfg.DataTimeout)
		default:
			err = errors.New("ftp: use PASV or PORT first")
		}
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		setBuffers(c, s.sbuf)
		conns = append(conns, c)
	}
	return conns, nil
}

// setBuffers applies a negotiated SBUF size (0: none) to a data socket.
func setBuffers(c net.Conn, n int) {
	if tc, ok := c.(*net.TCPConn); ok && n > 0 {
		_ = tc.SetReadBuffer(n) // a hint: the kernel may clamp it
		_ = tc.SetWriteBuffer(n)
	}
}

func closeAll[C io.Closer](cs []C) {
	for _, c := range cs {
		_ = c.Close() // best-effort teardown of a connection or listener set
	}
}

// --- transfers ---

func handleRETR(s *session, arg string) {
	if s.requireAuth() {
		s.retrieve(arg, s.takeRest(), -1)
	}
}

// handleERET is the partial retrieve "ERET P <offset> <length> <path>".
// The region names its own offset, so a pending REST refuses it.
func handleERET(s *session, arg string) {
	if !s.requireAuth() {
		return
	}
	if s.takeRest() > 0 {
		s.reply(503, "ERET names its own offset; REST not allowed")
		return
	}
	fields := strings.SplitN(arg, " ", 4)
	if len(fields) != 4 || !strings.EqualFold(fields[0], "P") {
		s.reply(501, "usage: ERET P <offset> <length> <path>")
		return
	}
	offset, err1 := strconv.ParseInt(fields[1], 10, 64)
	length, err2 := strconv.ParseInt(fields[2], 10, 64)
	if err1 != nil || err2 != nil || offset < 0 || length < 0 {
		s.reply(501, "bad offset/length")
		return
	}
	s.retrieve(fields[3], offset, length)
}

// retrieve sends [offset, offset+length) of the file name names, or from
// offset to the end when length < 0 (RETR): one stream in MODE S, MODE E
// blocks over the data channels otherwise.
func (s *session) retrieve(name string, offset, length int64) {
	path := s.resolve(name)
	f, err := s.srv.cfg.Store.Open(path)
	if err != nil {
		s.reply(550, err.Error())
		return
	}
	size, ranged := f.Size(), length >= 0
	if !ranged {
		length = max(size-offset, 0)
	}
	if offset > size || length > size-offset {
		_ = f.Close() // nothing was read; the 554 is the report
		s.reply(554, fmt.Sprintf("region (%d,%d) beyond size %d", offset, length, size))
		return
	}
	opening, done := fmt.Sprintf("opening data connection for %s (%d bytes)", name, length), ""
	switch {
	case s.mode == 'E':
		opening = fmt.Sprintf("opening %d data channel(s) for %s (%d bytes, MODE E)", s.channelCount(), name, length)
	case ranged:
		opening = fmt.Sprintf("opening data connection for %s region (%d,%d)", name, offset, length)
		done = "transfer complete"
	}
	s.transfer(f, path, 'o', opening, done, func(conns []net.Conn) (int64, error) {
		if s.mode == 'E' {
			return length, SendBlocks(conns, f, offset, length, DefaultBlockSize)
		}
		return io.Copy(conns[0], io.NewSectionReader(f, offset, length))
	})
}

// handleSTOR receives one upload. In MODE S it is one stream written from
// the pending REST offset, into a created or truncated file without one;
// in MODE E the blocks carry their own offsets, so a pending REST refuses
// it, and they land in a created file.
func handleSTOR(s *session, arg string) {
	if !s.requireAuth() {
		return
	}
	offset := s.takeRest()
	if s.mode == 'E' && offset > 0 {
		s.reply(503, "MODE E blocks carry their own offsets; REST not allowed")
		return
	}
	path := s.resolve(arg)
	open := s.srv.cfg.Store.Create
	if offset > 0 {
		open = s.srv.cfg.Store.Open
	}
	f, err := open(path)
	if err != nil {
		s.reply(550, err.Error())
		return
	}
	opening := "ok to send data"
	if s.mode == 'E' {
		opening = fmt.Sprintf("ready for %d data channel(s) (MODE E)", s.channelCount())
	}
	s.transfer(f, path, 'i', opening, "", func(conns []net.Conn) (int64, error) {
		if s.mode != 'E' {
			return io.Copy(io.NewOffsetWriter(f, offset), conns[0])
		}
		n, announced, eods, err := ReceiveBlocks(conns, f)
		if err == nil && announced > 0 && eods < announced {
			err = fmt.Errorf("missing data channels: got %d EODs of %d", eods, announced)
		}
		return n, err
	})
}

// transfer moves the open file f over the session's data channels and
// closes it: the 150 reply (opening), the channels, move, then the
// xferlog record and the 226 reply (done, or one counting the bytes and,
// in MODE E, the channels). A channel that cannot open replies 425, data
// that fails to move 426, and a file that fails to close 452.
func (s *session) transfer(f File, path string, dir byte, opening, done string, move func([]net.Conn) (int64, error)) {
	s.reply(150, opening)
	conns, err := s.dataChannels()
	if err != nil {
		_ = f.Close() // nothing moved; the 425 is the report
		s.reply(425, err.Error())
		return
	}
	defer closeAll(conns)
	start := s.srv.cfg.Clock()
	n, err := move(conns)
	cerr := f.Close()
	switch {
	case err != nil:
		s.reply(426, "transfer aborted: "+err.Error())
	case cerr != nil:
		s.reply(452, "closing file failed: "+cerr.Error())
	default:
		if done == "" {
			done = fmt.Sprintf("transfer complete (%d bytes)", n)
		}
		if s.mode == 'E' {
			done = fmt.Sprintf("transfer complete (%d bytes on %d channels)", n, len(conns))
		}
		s.logTransfer(start, n, path, dir)
		s.reply(226, done)
	}
}
