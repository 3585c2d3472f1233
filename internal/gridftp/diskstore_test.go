package gridftp

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func newDiskStore(t *testing.T) *DiskStore {
	t.Helper()
	dir := t.TempDir()
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func putDisk(t *testing.T, st *DiskStore, path string, data []byte) {
	t.Helper()
	f, err := st.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskStoreValidation(t *testing.T) {
	if _, err := NewDiskStore(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing root should be rejected")
	}
	f := filepath.Join(t.TempDir(), "afile")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDiskStore(f); err == nil {
		t.Fatal("file root should be rejected")
	}
}

func TestDiskStoreCRUD(t *testing.T) {
	st := newDiskStore(t)
	putDisk(t, st, "/data/nested/file.bin", []byte("payload"))
	n, err := st.Size("/data/nested/file.bin")
	if err != nil || n != 7 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	f, err := st.Open("/data/nested/file.bin")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if _, err := f.ReadAt(buf, 0); err != nil && err.Error() != "EOF" {
		t.Fatal(err)
	}
	if string(buf) != "payload" {
		t.Fatalf("content = %q", buf)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(st.Root(), "data", "nested", "file.bin")); err != nil {
		t.Fatalf("file not under the root: %v", err)
	}
	if _, err := st.Open("/data/nested/ghost.bin"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Open missing err = %v", err)
	}
	if _, err := st.Size("/ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Size missing err = %v", err)
	}
	if _, err := st.Size("/"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Size on directory err = %v", err)
	}
}

func TestDiskStoreTraversalRejected(t *testing.T) {
	st := newDiskStore(t)
	for _, bad := range []string{"/../etc/passwd", "a/../../b"} {
		if _, err := st.Open(bad); err == nil {
			t.Fatalf("Open(%q) should be rejected", bad)
		}
		if _, err := st.Create(bad); err == nil {
			t.Fatalf("Create(%q) should be rejected", bad)
		}
	}
}

func TestDiskStoreSparseWrites(t *testing.T) {
	st := newDiskStore(t)
	f, err := st.Create("/sparse.bin")
	if err != nil {
		t.Fatal(err)
	}
	// MODE E style out-of-order writes.
	if _, err := f.WriteAt([]byte("tail"), 8); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("headmid!"), 0); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 12 {
		t.Fatalf("Size = %d", f.Size())
	}
}

// TestGridFTPOverDiskStore runs the full wire protocol against the real
// filesystem.
func TestGridFTPOverDiskStore(t *testing.T) {
	st := newDiskStore(t)
	payload := bytes.Repeat([]byte("disk-backed "), 100_000)
	putDisk(t, st, "/pub/big.bin", payload)
	srv, err := NewServer(ServerConfig{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Login("u", "p"); err != nil {
		t.Fatal(err)
	}
	if err := c.TypeImage(); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("/pub/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("disk-backed download mismatch")
	}
	if err := c.Put("/incoming/up.bin", payload[:1000]); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(filepath.Join(st.Root(), "incoming", "up.bin"))
	if err != nil || !bytes.Equal(got, payload[:1000]) {
		t.Fatalf("upload on disk = %d bytes, %v", len(got), err)
	}
}
