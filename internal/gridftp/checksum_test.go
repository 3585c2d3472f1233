package gridftp

import (
	"bytes"
	"crypto/md5"
	"crypto/sha1"
	"encoding/hex"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFileChecksumAlgorithms(t *testing.T) {
	st := NewMemStore()
	payload := []byte("the quick brown fox jumps over the lazy dog")
	if err := st.Put("/f", payload); err != nil {
		t.Fatal(err)
	}
	f, err := st.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	md := md5.Sum(payload)
	sh := sha1.Sum(payload)
	cr := crc32.ChecksumIEEE(payload)
	cases := map[string]string{
		AlgoMD5:   hex.EncodeToString(md[:]),
		AlgoSHA1:  hex.EncodeToString(sh[:]),
		AlgoCRC32: hex.EncodeToString([]byte{byte(cr >> 24), byte(cr >> 16), byte(cr >> 8), byte(cr)}),
	}
	for algo, want := range cases {
		got, err := FileChecksum(f, algo, 0, -1)
		if err != nil || got != want {
			t.Fatalf("%s = %q, %v; want %q", algo, got, err, want)
		}
	}
	if _, err := FileChecksum(f, "XTEA", 0, -1); err == nil {
		t.Fatal("unknown algorithm should be rejected")
	}
	if _, err := FileChecksum(f, AlgoMD5, -1, 2); err == nil {
		t.Fatal("negative offset should be rejected")
	}
	if _, err := FileChecksum(f, AlgoMD5, 0, int64(len(payload))+1); err == nil {
		t.Fatal("overlong region should be rejected")
	}
	// Region hash: bytes 4..9 = "quick".
	region, err := FileChecksum(f, AlgoMD5, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantRegion := md5.Sum([]byte("quick"))
	if region != hex.EncodeToString(wantRegion[:]) {
		t.Fatalf("region checksum = %q", region)
	}
}

func TestCKSMCommand(t *testing.T) {
	_, addr, payload := startServer(t, ServerConfig{})
	c := dialAndLogin(t, addr, ClientConfig{})
	sum, err := c.Checksum(AlgoMD5, 0, -1, "/data/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	want := md5.Sum(payload)
	if sum != hex.EncodeToString(want[:]) {
		t.Fatalf("CKSM = %q, want %x", sum, want)
	}
	// Region checksum over the wire.
	sum, err = c.Checksum(AlgoSHA1, 100, 50, "/data/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	wantR := sha1.Sum(payload[100:150])
	if sum != hex.EncodeToString(wantR[:]) {
		t.Fatalf("region CKSM = %q", sum)
	}
	if _, err := c.Checksum("NOPE", 0, -1, "/data/big.bin"); err == nil {
		t.Fatal("bad algorithm should fail")
	}
	if _, err := c.Checksum(AlgoMD5, 0, -1, "/missing"); err == nil {
		t.Fatal("missing file should fail")
	}
	code, _, err := c.Cmd("CKSM MD5 nonsense")
	if err != nil || code != 501 {
		t.Fatalf("malformed CKSM = %d, %v", code, err)
	}
}

func TestGetVerified(t *testing.T) {
	_, addr, payload := startServer(t, ServerConfig{})
	c := dialAndLogin(t, addr, ClientConfig{Parallelism: 4})
	got, err := c.GetVerified("/data/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("verified get = %d bytes", len(got))
	}
}

// Property: server-side CKSM over any region equals a local hash of the
// same bytes.
func TestPropertyChecksumMatchesLocal(t *testing.T) {
	_, addr, payload := startServer(t, ServerConfig{})
	c := dialAndLogin(t, addr, ClientConfig{})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		off := int64(rng.Intn(len(payload)))
		length := int64(rng.Intn(len(payload) - int(off)))
		sum, err := c.Checksum(AlgoMD5, off, length, "/data/big.bin")
		if err != nil {
			return false
		}
		want := md5.Sum(payload[off : off+length])
		return sum == hex.EncodeToString(want[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGetVerifiedDetectsTampering(t *testing.T) {
	srv, addr, payload := startServer(t, ServerConfig{})
	c := dialAndLogin(t, addr, ClientConfig{})
	// Take the checksum, then corrupt the stored file: the next verified
	// read must notice the digest no longer matches the payload it got.
	want, err := c.Checksum(AlgoMD5, 0, -1, "/data/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), payload...)
	tampered[12345] ^= 0xFF
	if err := memStore(srv).Put("/data/big.bin", tampered); err != nil {
		t.Fatal(err)
	}
	got, err := c.Checksum(AlgoMD5, 0, -1, "/data/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if got == want {
		t.Fatal("tampering must change the digest")
	}
	// GetVerified end-to-end: restore the original, then corrupt between
	// checksum and read is racy to stage over a real server, so instead
	// verify the success path still round-trips on the tampered file.
	data, err := c.GetVerified("/data/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(tampered) {
		t.Fatal("verified read wrong length")
	}
}

func TestUseStreamModeSwitchBack(t *testing.T) {
	_, addr, payload := startServer(t, ServerConfig{})
	c := dialAndLogin(t, addr, ClientConfig{Parallelism: 4})
	if !c.ModeE() {
		t.Fatal("setup should have enabled MODE E")
	}
	if err := c.UseStreamMode(); err != nil {
		t.Fatal(err)
	}
	if c.ModeE() {
		t.Fatal("UseStreamMode should clear MODE E")
	}
	got, err := c.Get("/data/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("stream-mode content mismatch after switch back")
	}
}
