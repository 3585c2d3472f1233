package ftp

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// Client is an FTP control-channel client. The gridftp package embeds it
// and adds the extended commands.
type Client struct {
	conn    net.Conn
	r       *bufio.Reader
	timeout time.Duration
}

// Dial connects to an FTP server and consumes the 220 banner.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("ftp: dial %s: %w", addr, err)
	}
	c := &Client{conn: conn, r: bufio.NewReader(conn), timeout: timeout}
	code, msg, err := c.ReadReply()
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	if code != 220 {
		_ = conn.Close()
		return nil, fmt.Errorf("ftp: unexpected banner %d %s", code, msg)
	}
	return c, nil
}

// Conn exposes the control connection for in-band extension handshakes.
func (c *Client) Conn() net.Conn { return c.conn }

// Reader exposes the buffered control reader (paired with Conn).
func (c *Client) Reader() *bufio.Reader { return c.r }

// Timeout returns the client's per-operation timeout.
func (c *Client) Timeout() time.Duration { return c.timeout }

// Close tears down the control connection without QUIT.
func (c *Client) Close() error { return c.conn.Close() }

// ReadReply reads one (possibly multi-line) server reply.
func (c *Client) ReadReply() (int, string, error) {
	//gridlint:wallclock-ok real socket read deadline on the live control connection
	if err := c.conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, "", err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return 0, "", fmt.Errorf("ftp: reading reply: %w", err)
	}
	line = strings.TrimRight(line, "\r\n")
	if len(line) < 4 {
		return 0, "", fmt.Errorf("ftp: short reply %q", line)
	}
	code, err := strconv.Atoi(line[:3])
	if err != nil {
		return 0, "", fmt.Errorf("ftp: bad reply code in %q", line)
	}
	msg := line[4:]
	if line[3] == '-' { // multi-line: read until "NNN " terminator
		var sb strings.Builder
		sb.WriteString(msg)
		term := line[:3] + " "
		for {
			l, err := c.r.ReadString('\n')
			if err != nil {
				return 0, "", fmt.Errorf("ftp: reading multiline reply: %w", err)
			}
			l = strings.TrimRight(l, "\r\n")
			if strings.HasPrefix(l, term) {
				sb.WriteByte('\n')
				sb.WriteString(l[4:])
				break
			}
			sb.WriteByte('\n')
			sb.WriteString(l)
		}
		msg = sb.String()
	}
	return code, msg, nil
}

// Cmd sends one command and reads the reply.
func (c *Client) Cmd(format string, args ...any) (int, string, error) {
	//gridlint:wallclock-ok real socket write deadline on the live control connection
	if err := c.conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, "", err
	}
	if _, err := fmt.Fprintf(c.conn, format+"\r\n", args...); err != nil {
		return 0, "", fmt.Errorf("ftp: sending command: %w", err)
	}
	return c.ReadReply()
}

// Expect sends a command and verifies the reply code.
func (c *Client) Expect(want int, format string, args ...any) (string, error) {
	code, msg, err := c.Cmd(format, args...)
	if err != nil {
		return "", err
	}
	if code != want {
		return msg, fmt.Errorf("ftp: %s: got %d %s, want %d",
			strings.Fields(fmt.Sprintf(format, args...))[0], code, msg, want)
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
		if _, err := c.Expect(230, "PASS %s", pass); err != nil {
			return err
		}
		return nil
	default:
		return fmt.Errorf("ftp: USER: %d %s", code, msg)
	}
}

// TypeImage switches to binary transfers.
func (c *Client) TypeImage() error {
	_, err := c.Expect(200, "TYPE I")
	return err
}

// Passive issues PASV and returns the dialable data address.
func (c *Client) Passive() (string, error) {
	msg, err := c.Expect(227, "PASV")
	if err != nil {
		return "", err
	}
	open := strings.IndexByte(msg, '(')
	close := strings.IndexByte(msg, ')')
	if open < 0 || close < 0 || close <= open {
		return "", fmt.Errorf("ftp: unparseable PASV reply %q", msg)
	}
	return ParsePasvAddr(msg[open+1 : close])
}

// Size returns the server-side size of a file.
func (c *Client) Size(path string) (int64, error) {
	msg, err := c.Expect(213, "SIZE %s", path)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(msg), 10, 64)
}

// Retr downloads a file into w and returns the byte count.
func (c *Client) Retr(path string, w io.Writer) (int64, error) {
	return c.RetrFrom(path, 0, w)
}

// RetrFrom downloads a file starting at offset (REST + RETR).
func (c *Client) RetrFrom(path string, offset int64, w io.Writer) (int64, error) {
	addr, err := c.Passive()
	if err != nil {
		return 0, err
	}
	data, err := net.DialTimeout("tcp", addr, c.timeout)
	if err != nil {
		return 0, fmt.Errorf("ftp: dialing data connection: %w", err)
	}
	defer data.Close()
	if offset > 0 {
		if _, err := c.Expect(350, "REST %d", offset); err != nil {
			return 0, err
		}
	}
	if _, err := c.Expect(150, "RETR %s", path); err != nil {
		return 0, err
	}
	n, err := io.Copy(w, data)
	if err != nil {
		return n, fmt.Errorf("ftp: data transfer: %w", err)
	}
	if err := data.Close(); err != nil {
		return n, fmt.Errorf("ftp: close data connection: %w", err)
	}
	if _, err := c.expectFinal(226); err != nil {
		return n, err
	}
	return n, nil
}

// RetrResumable downloads a file, transparently resuming with REST after
// mid-transfer failures (a flaky disk or dropped data connection). The
// retry budget applies to consecutive attempts that made no progress;
// any forward progress resets it.
func (c *Client) RetrResumable(path string, w io.Writer, maxRetries int) (int64, error) {
	if maxRetries < 0 {
		return 0, fmt.Errorf("ftp: negative retry budget %d", maxRetries)
	}
	var total int64
	retries := 0
	for {
		n, err := c.RetrFrom(path, total, w)
		total += n
		if err == nil {
			return total, nil
		}
		if n == 0 {
			retries++
		} else {
			retries = 0
		}
		if retries > maxRetries {
			return total, fmt.Errorf("ftp: resumable transfer of %s gave up after %d fruitless retries: %w",
				path, maxRetries, err)
		}
	}
}

// Stor uploads r to path on the server and returns the byte count.
func (c *Client) Stor(path string, r io.Reader) (int64, error) {
	addr, err := c.Passive()
	if err != nil {
		return 0, err
	}
	data, err := net.DialTimeout("tcp", addr, c.timeout)
	if err != nil {
		return 0, fmt.Errorf("ftp: dialing data connection: %w", err)
	}
	defer data.Close()
	if _, err := c.Expect(150, "STOR %s", path); err != nil {
		return 0, err
	}
	n, err := io.Copy(data, r)
	if err != nil {
		return n, fmt.Errorf("ftp: data transfer: %w", err)
	}
	// Close signals EOF to the server; a failed close means the upload
	// never terminated cleanly, so surface it.
	if err := data.Close(); err != nil {
		return n, fmt.Errorf("ftp: close data connection: %w", err)
	}
	if _, err := c.expectFinal(226); err != nil {
		return n, err
	}
	return n, nil
}

// List returns the server's file listing via NLST.
func (c *Client) List() ([]string, error) {
	addr, err := c.Passive()
	if err != nil {
		return nil, err
	}
	data, err := net.DialTimeout("tcp", addr, c.timeout)
	if err != nil {
		return nil, err
	}
	defer data.Close()
	if _, err := c.Expect(150, "NLST"); err != nil {
		return nil, err
	}
	var out []string
	sc := bufio.NewScanner(data)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			out = append(out, l)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if _, err := c.expectFinal(226); err != nil {
		return nil, err
	}
	return out, nil
}

// ExpectFinal reads a pending reply (e.g. the 226 closing a transfer whose
// 150 was already consumed) and checks its code. Extensions that interleave
// commands across control channels (third-party transfer) need it.
func (c *Client) ExpectFinal(want int) (string, error) {
	return c.expectFinal(want)
}

// expectFinal reads the post-transfer reply and checks its code.
func (c *Client) expectFinal(want int) (string, error) {
	code, msg, err := c.ReadReply()
	if err != nil {
		return "", err
	}
	if code != want {
		return msg, fmt.Errorf("ftp: transfer finished with %d %s, want %d", code, msg, want)
	}
	return msg, nil
}

// Rename moves a server-side file (RNFR/RNTO).
func (c *Client) Rename(from, to string) error {
	if _, err := c.Expect(350, "RNFR %s", from); err != nil {
		return err
	}
	_, err := c.Expect(250, "RNTO %s", to)
	return err
}

// Append appends r to a server-side file, creating it if absent (APPE).
func (c *Client) Append(path string, r io.Reader) (int64, error) {
	addr, err := c.Passive()
	if err != nil {
		return 0, err
	}
	data, err := net.DialTimeout("tcp", addr, c.timeout)
	if err != nil {
		return 0, fmt.Errorf("ftp: dialing data connection: %w", err)
	}
	defer data.Close()
	if _, err := c.Expect(150, "APPE %s", path); err != nil {
		return 0, err
	}
	n, err := io.Copy(data, r)
	if err != nil {
		return n, fmt.Errorf("ftp: data transfer: %w", err)
	}
	if err := data.Close(); err != nil {
		return n, fmt.Errorf("ftp: close data connection: %w", err)
	}
	if _, err := c.expectFinal(226); err != nil {
		return n, err
	}
	return n, nil
}

// Delete removes a server-side file (DELE).
func (c *Client) Delete(path string) error {
	_, err := c.Expect(250, "DELE %s", path)
	return err
}

// ChangeDir changes the server-side working directory (CWD).
func (c *Client) ChangeDir(dir string) error {
	_, err := c.Expect(250, "CWD %s", dir)
	return err
}

// FileInfo is one MLSD listing entry.
type FileInfo struct {
	Path string
	Size int64
}

// ListFacts retrieves the machine-readable listing for dir ("" for the
// working directory) via MLSD.
func (c *Client) ListFacts(dir string) ([]FileInfo, error) {
	addr, err := c.Passive()
	if err != nil {
		return nil, err
	}
	data, err := net.DialTimeout("tcp", addr, c.timeout)
	if err != nil {
		return nil, err
	}
	defer data.Close()
	cmd := "MLSD"
	if dir != "" {
		cmd += " " + dir
	}
	if _, err := c.Expect(150, "%s", cmd); err != nil {
		return nil, err
	}
	var out []FileInfo
	sc := bufio.NewScanner(data)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		facts, path, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("ftp: malformed MLSD line %q", line)
		}
		fi := FileInfo{Path: path}
		for _, f := range strings.Split(facts, ";") {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				continue
			}
			if strings.EqualFold(k, "size") {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("ftp: bad size in MLSD line %q", line)
				}
				fi.Size = n
			}
		}
		out = append(out, fi)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if _, err := c.expectFinal(226); err != nil {
		return nil, err
	}
	return out, nil
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
