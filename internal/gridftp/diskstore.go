package gridftp

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// DiskStore serves a real directory tree — the production mode of
// cmd/gridftpd. All paths are confined to the root directory; traversal
// attempts are rejected before touching the filesystem.
type DiskStore struct {
	root string
}

// NewDiskStore creates a store rooted at dir, which must exist and be a
// directory.
func NewDiskStore(dir string) (*DiskStore, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("ftp: resolving store root: %w", err)
	}
	fi, err := os.Stat(abs)
	if err != nil {
		return nil, fmt.Errorf("ftp: store root: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("ftp: store root %q is not a directory", abs)
	}
	return &DiskStore{root: abs}, nil
}

// Root returns the absolute root directory.
func (s *DiskStore) Root() string { return s.root }

// resolve maps a virtual path onto the real filesystem, refusing escapes.
func (s *DiskStore) resolve(path string) (string, error) {
	p, err := cleanPath(path)
	if err != nil {
		return "", err
	}
	full := filepath.Join(s.root, filepath.FromSlash(p))
	if full != s.root && !strings.HasPrefix(full, s.root+string(filepath.Separator)) {
		return "", fmt.Errorf("ftp: path %q escapes store root", path)
	}
	return full, nil
}

// diskFile adapts *os.File to the Store's File interface: the size is
// read from the file each time, so a writer sees its own growth.
type diskFile struct {
	*os.File
}

func (d diskFile) Size() int64 {
	fi, err := d.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Open returns an existing file for reading (and offset writes, for REST+STOR).
func (s *DiskStore) Open(path string) (File, error) {
	full, err := s.resolve(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(full, os.O_RDWR, 0)
	if errors.Is(err, fs.ErrNotExist) {
		// Fall back to read-only for files we cannot write.
		f, err = os.Open(full)
	}
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if err != nil {
		return nil, fmt.Errorf("ftp: opening %s: %w", path, err)
	}
	return diskFile{f}, nil
}

// Create makes (or truncates) a file, creating parent directories.
func (s *DiskStore) Create(path string) (File, error) {
	full, err := s.resolve(path)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return nil, fmt.Errorf("ftp: creating directories for %s: %w", path, err)
	}
	f, err := os.OpenFile(full, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ftp: creating %s: %w", path, err)
	}
	return diskFile{f}, nil
}

// Size returns a file's length.
func (s *DiskStore) Size(path string) (int64, error) {
	full, err := s.resolve(path)
	if err != nil {
		return 0, err
	}
	fi, err := os.Stat(full)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if err != nil {
		return 0, err
	}
	if fi.IsDir() {
		return 0, fmt.Errorf("%w: %s is a directory", ErrNotFound, path)
	}
	return fi.Size(), nil
}

var _ Store = (*DiskStore)(nil)
