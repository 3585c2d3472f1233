package gridftp

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBlockRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Block{Desc: DescEOD | DescEOF, Offset: 0xDEADBEEF, Payload: []byte("grid data")}
	if err := WriteBlock(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadBlock(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Desc != in.Desc || out.Offset != in.Offset || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	if !out.EOD() || !out.EOF() {
		t.Fatal("flag accessors wrong")
	}
}

func TestBlockHeaderLayout(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBlock(&buf, Block{Desc: DescEOD, Offset: 1, Payload: []byte{0xFF}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) != HeaderLen+1 {
		t.Fatalf("wire length = %d, want %d", len(raw), HeaderLen+1)
	}
	// 8 bits of flags, 64-bit offset, 64-bit length — the paper's MODE E
	// block layout (§4.2).
	if raw[0] != DescEOD {
		t.Fatalf("flag byte = %x", raw[0])
	}
	if raw[8] != 1 { // big-endian offset 1 ends at byte 8
		t.Fatalf("offset bytes = %v", raw[1:9])
	}
	if raw[16] != 1 { // big-endian length 1 ends at byte 16
		t.Fatalf("length bytes = %v", raw[9:17])
	}
}

func TestReadBlockEOF(t *testing.T) {
	if _, err := ReadBlock(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty reader err = %v, want io.EOF", err)
	}
	// Truncated header is an error, not clean EOF.
	if _, err := ReadBlock(bytes.NewReader([]byte{1, 2, 3})); err == io.EOF || err == nil {
		t.Fatalf("truncated header err = %v", err)
	}
}

func TestReadBlockLengthGuard(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, HeaderLen)
	hdr[9] = 0xFF // absurd length
	buf.Write(hdr)
	if _, err := ReadBlock(&buf); err == nil {
		t.Fatal("oversized length must be rejected")
	}
	if err := WriteBlock(io.Discard, Block{Payload: make([]byte, MaxBlockLen+1)}); err == nil {
		t.Fatal("oversized write must be rejected")
	}
}

func TestSendReceiveSingleChannel(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 1000)
	pr, pw := io.Pipe()
	go func() {
		if err := SendBlocks([]io.Writer{pw}, bytes.NewReader(payload), 0, int64(len(payload)), 512); err != nil {
			t.Error(err)
		}
		pw.Close()
	}()
	out := make([]byte, len(payload))
	total, channels, eods, err := ReceiveBlocks([]io.Reader{pr}, byteWriterAt{out})
	if err != nil {
		t.Fatal(err)
	}
	if total != int64(len(payload)) || channels != 1 || eods != 1 {
		t.Fatalf("total=%d channels=%d eods=%d", total, channels, eods)
	}
	if !bytes.Equal(out, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestSendReceiveParallelChannels(t *testing.T) {
	payload := make([]byte, 1<<20)
	rng := rand.New(rand.NewSource(7))
	rng.Read(payload)
	const nch = 4
	rs := make([]io.Reader, nch)
	ws := make([]io.Writer, nch)
	for i := 0; i < nch; i++ {
		pr, pw := io.Pipe()
		rs[i], ws[i] = pr, pw
	}
	go func() {
		if err := SendBlocks(ws, bytes.NewReader(payload), 0, int64(len(payload)), 8192); err != nil {
			t.Error(err)
		}
		for _, w := range ws {
			w.(*io.PipeWriter).Close()
		}
	}()
	out := make([]byte, len(payload))
	total, channels, eods, err := ReceiveBlocks(rs, byteWriterAt{out})
	if err != nil {
		t.Fatal(err)
	}
	if total != int64(len(payload)) || channels != nch || eods != nch {
		t.Fatalf("total=%d channels=%d eods=%d", total, channels, eods)
	}
	if !bytes.Equal(out, payload) {
		t.Fatal("parallel payload mismatch")
	}
}

func TestSendBlocksRange(t *testing.T) {
	payload := []byte("0123456789abcdef")
	var buf bytes.Buffer
	if err := SendBlocks([]io.Writer{&buf}, bytes.NewReader(payload), 4, 8, 3); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(payload))
	_, _, _, err := ReceiveBlocks([]io.Reader{bytes.NewReader(buf.Bytes())}, byteWriterAt{out})
	if err != nil {
		t.Fatal(err)
	}
	if string(out[4:12]) != "456789ab" {
		t.Fatalf("range content = %q", out[4:12])
	}
}

func TestSendBlocksValidation(t *testing.T) {
	if err := SendBlocks([]io.Writer(nil), bytes.NewReader(nil), 0, 0, 0); err == nil {
		t.Fatal("no channels should fail")
	}
	if err := SendBlocks([]io.Writer{io.Discard}, bytes.NewReader(nil), -1, 0, 0); err == nil {
		t.Fatal("negative offset should fail")
	}
	if err := SendBlocks([]io.Writer{io.Discard}, bytes.NewReader(nil), 0, -1, 0); err == nil {
		t.Fatal("negative length should fail")
	}
}

func TestSendBlocksZeroLength(t *testing.T) {
	var buf bytes.Buffer
	if err := SendBlocks([]io.Writer{&buf}, bytes.NewReader(nil), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	total, channels, eods, err := ReceiveBlocks([]io.Reader{bytes.NewReader(buf.Bytes())}, byteWriterAt{nil})
	if err != nil || total != 0 || channels != 1 || eods != 1 {
		t.Fatalf("zero-length: total=%d ch=%d eods=%d err=%v", total, channels, eods, err)
	}
}

// Property: any payload split across any channel count and block size
// reassembles exactly.
func TestPropertyModeERoundTrip(t *testing.T) {
	f := func(seed int64, sizeRaw uint16, nchRaw, bsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(sizeRaw)%20000 + 1
		nch := int(nchRaw)%8 + 1
		bs := int(bsRaw)%1000 + 1
		payload := make([]byte, size)
		rng.Read(payload)
		rs := make([]io.Reader, nch)
		ws := make([]io.Writer, nch)
		for i := 0; i < nch; i++ {
			pr, pw := io.Pipe()
			rs[i], ws[i] = pr, pw
		}
		go func() {
			_ = SendBlocks(ws, bytes.NewReader(payload), 0, int64(size), bs)
			for _, w := range ws {
				w.(*io.PipeWriter).Close()
			}
		}()
		out := make([]byte, size)
		total, channels, eods, err := ReceiveBlocks(rs, byteWriterAt{out})
		return err == nil && total == int64(size) && channels == nch && eods == nch &&
			bytes.Equal(out, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
