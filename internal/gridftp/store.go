package gridftp

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
)

// File is an open file supporting random access reads and writes. MODE E
// receivers need WriteAt because extended blocks may arrive out of order.
// The server closes every file it opens.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Size returns the current file length.
	Size() int64
}

// Store is the virtual filesystem a server exposes.
type Store interface {
	// Open returns an existing file for reading.
	Open(path string) (File, error)
	// Create makes (or truncates) a file for writing.
	Create(path string) (File, error)
	// Size returns a file's length.
	Size(path string) (int64, error)
}

// ErrNotFound is returned for missing paths.
var ErrNotFound = errors.New("ftp: file not found")

// MemStore is an in-memory Store, safe for concurrent use.
type MemStore struct {
	mu    sync.RWMutex
	files map[string]*memFile
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore {
	return &MemStore{files: make(map[string]*memFile)}
}

type memFile struct {
	mu   sync.RWMutex
	data []byte
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if off < 0 {
		return 0, errors.New("ftp: negative offset")
	}
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt may leave a hole, since MODE E blocks arrive out of order, but
// it refuses to start more than MaxBlockLen past the current end: a hole
// is zero-filled memory, so an unbounded offset would let one block
// allocate anything. Each of a sender's channels writes its own blocks in
// order, so a SendBlocks write lands at most (channels − 1) × block size
// past the end, and none is refused while that stays within MaxBlockLen.
func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("ftp: negative offset")
	}
	if off > math.MaxInt64-int64(len(p)) {
		return 0, fmt.Errorf("ftp: write of %d bytes at offset %d overflows", len(p), off)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if off-int64(len(f.data)) > MaxBlockLen {
		return 0, fmt.Errorf("ftp: write at offset %d leaves a hole of more than %d bytes past the end at %d",
			off, MaxBlockLen, len(f.data))
	}
	end := off + int64(len(p))
	if end > int64(len(f.data)) {
		if end <= int64(cap(f.data)) {
			f.data = f.data[:end]
		} else {
			// Grow geometrically: a MODE E receiver extends the file on
			// nearly every block, and linear reallocation would make the
			// fill quadratic.
			newCap := int64(cap(f.data)) * 2
			if newCap < end {
				newCap = end
			}
			grown := make([]byte, end, newCap)
			copy(grown, f.data)
			f.data = grown
		}
	}
	copy(f.data[off:end], p)
	return len(p), nil
}

// Close is a no-op: the bytes stay in the store.
func (f *memFile) Close() error { return nil }

func (f *memFile) Size() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64(len(f.data))
}

func cleanPath(path string) (string, error) {
	if path == "" {
		return "", errors.New("ftp: empty path")
	}
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	if strings.Contains(path, "..") {
		return "", fmt.Errorf("ftp: path %q escapes root", path)
	}
	return path, nil
}

// Open returns an existing file for reading.
func (s *MemStore) Open(path string) (File, error) {
	p, err := cleanPath(path)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.files[p]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	return f, nil
}

// Create makes (or truncates) a file for writing.
func (s *MemStore) Create(path string) (File, error) {
	p, err := cleanPath(path)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f := &memFile{}
	s.files[p] = f
	return f, nil
}

// Size returns a file's length.
func (s *MemStore) Size(path string) (int64, error) {
	f, err := s.Open(path)
	if err != nil {
		return 0, err
	}
	return f.Size(), nil
}

// Put writes a whole file (test and example convenience).
func (s *MemStore) Put(path string, data []byte) error {
	f, err := s.Create(path)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, 0)
	return err
}

// Get reads a whole file (test and example convenience).
func (s *MemStore) Get(path string) ([]byte, error) {
	f, err := s.Open(path)
	if err != nil {
		return nil, err
	}
	out := make([]byte, f.Size())
	if len(out) == 0 {
		return out, nil
	}
	if _, err := f.ReadAt(out, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return out, nil
}
