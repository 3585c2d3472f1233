package gridftp

import (
	"crypto/md5"
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"strconv"
	"strings"
)

// Checksum algorithms supported by the CKSM command (the GridFTP v2
// checksum feature, used for end-to-end transfer verification).
const (
	AlgoMD5   = "MD5"
	AlgoSHA1  = "SHA1"
	AlgoCRC32 = "CRC32"
)

func newHasher(algo string) (hash.Hash, error) {
	switch strings.ToUpper(algo) {
	case AlgoMD5:
		return md5.New(), nil
	case AlgoSHA1:
		return sha1.New(), nil
	case AlgoCRC32:
		return crc32.NewIEEE(), nil
	default:
		return nil, fmt.Errorf("gridftp: unsupported checksum algorithm %q", algo)
	}
}

// FileChecksum computes the named digest of [offset, offset+length) of f.
// length < 0 means "to end of file".
func FileChecksum(f File, algo string, offset, length int64) (string, error) {
	h, err := newHasher(algo)
	if err != nil {
		return "", err
	}
	size := f.Size()
	if offset < 0 || offset > size {
		return "", fmt.Errorf("gridftp: checksum offset %d outside file of %d", offset, size)
	}
	if length < 0 {
		length = size - offset
	}
	if length > size-offset {
		return "", fmt.Errorf("gridftp: checksum region (%d,%d) beyond size %d", offset, length, size)
	}
	if _, err := io.Copy(h, io.NewSectionReader(f, offset, length)); err != nil {
		return "", fmt.Errorf("gridftp: hashing: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// handleCKSM implements "CKSM <algo> <offset> <length> <path>"; length -1
// hashes to end of file. Reply: "213 <hex digest>".
func handleCKSM(s *session, arg string) {
	if !s.requireAuth() {
		return
	}
	fields := strings.SplitN(arg, " ", 4)
	if len(fields) != 4 {
		s.reply(501, "usage: CKSM <algo> <offset> <length> <path>")
		return
	}
	offset, err1 := strconv.ParseInt(fields[1], 10, 64)
	length, err2 := strconv.ParseInt(fields[2], 10, 64)
	if err1 != nil || err2 != nil {
		s.reply(501, "bad offset/length")
		return
	}
	f, err := s.store().Open(s.resolve(fields[3]))
	if err != nil {
		s.reply(550, err.Error())
		return
	}
	sum, err := FileChecksum(f, fields[0], offset, length)
	if err != nil {
		s.reply(504, err.Error())
		return
	}
	s.reply(213, sum)
}

// Checksum asks the server for a digest of [offset, offset+length) of
// path; length < 0 hashes to end of file.
func (c *Client) Checksum(algo string, offset, length int64, path string) (string, error) {
	msg, err := c.Expect(213, "CKSM %s %d %d %s", strings.ToUpper(algo), offset, length, path)
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(msg), nil
}

// GetVerified downloads a file and verifies it against the server's MD5
// digest, failing on any corruption — the integrity check layered on the
// parallel transfer path.
func (c *Client) GetVerified(path string) ([]byte, error) {
	want, err := c.Checksum(AlgoMD5, 0, -1, path)
	if err != nil {
		return nil, err
	}
	data, err := c.Get(path)
	if err != nil {
		return nil, err
	}
	got := md5.Sum(data)
	if hex.EncodeToString(got[:]) != want {
		return nil, fmt.Errorf("gridftp: checksum mismatch for %s: got %x, server says %s", path, got, want)
	}
	return data, nil
}
