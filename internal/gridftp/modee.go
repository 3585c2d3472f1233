package gridftp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MODE E descriptor flag bits (RFC 959 block mode extended by GridFTP).
const (
	// DescEOD marks the last block on one data channel.
	DescEOD byte = 0x08
	// DescEOF marks the block whose offset field carries the total number
	// of data channels the sender used; the receiver is done when it has
	// seen EOF and that many EODs.
	DescEOF byte = 0x40
)

// HeaderLen is the MODE E block header size: 1 flag byte + two 64-bit
// big-endian integers (offset, length).
const HeaderLen = 1 + 8 + 8

// MaxBlockLen bounds a single block's payload, protecting receivers from
// absurd allocations on corrupt headers.
const MaxBlockLen = 16 << 20

// DefaultBlockSize is the payload size senders use per block.
const DefaultBlockSize = 64 * 1024

// Block is one MODE E extended block.
type Block struct {
	Desc   byte
	Offset uint64
	// Payload is nil for pure control blocks (EOD/EOF with no data).
	Payload []byte
}

// EOF reports whether the block carries the channel-count marker.
func (b Block) EOF() bool { return b.Desc&DescEOF != 0 }

// EOD reports whether the block ends its data channel.
func (b Block) EOD() bool { return b.Desc&DescEOD != 0 }

// WriteBlock writes one extended block to w.
func WriteBlock(w io.Writer, b Block) error {
	if len(b.Payload) > MaxBlockLen {
		return fmt.Errorf("gridftp: block of %d bytes exceeds max %d", len(b.Payload), MaxBlockLen)
	}
	var hdr [HeaderLen]byte
	hdr[0] = b.Desc
	binary.BigEndian.PutUint64(hdr[1:9], b.Offset)
	binary.BigEndian.PutUint64(hdr[9:17], uint64(len(b.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("gridftp: writing block header: %w", err)
	}
	if len(b.Payload) > 0 {
		if _, err := w.Write(b.Payload); err != nil {
			return fmt.Errorf("gridftp: writing block payload: %w", err)
		}
	}
	return nil
}

// ReadBlock reads one extended block from r. On a cleanly closed channel it
// returns io.EOF.
func ReadBlock(r io.Reader) (Block, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Block{}, io.EOF
		}
		return Block{}, fmt.Errorf("gridftp: reading block header: %w", err)
	}
	b := Block{Desc: hdr[0], Offset: binary.BigEndian.Uint64(hdr[1:9])}
	length := binary.BigEndian.Uint64(hdr[9:17])
	if length > MaxBlockLen {
		return Block{}, fmt.Errorf("gridftp: block length %d exceeds max %d", length, MaxBlockLen)
	}
	if length > 0 {
		b.Payload = make([]byte, length)
		if _, err := io.ReadFull(r, b.Payload); err != nil {
			return Block{}, fmt.Errorf("gridftp: reading block payload: %w", err)
		}
	}
	return b, nil
}

// SendBlocks transmits the byte range [offset, offset+length) of src over
// the given data channels in MODE E. Blocks of blockSize bytes are
// assigned round-robin to channels; every channel ends with EOD and the
// first channel also carries the EOF marker announcing the channel count.
// It is the shared sender for server RETR, client STOR and every striped
// variant.
func SendBlocks[W io.Writer](conns []W, src io.ReaderAt, offset, length int64, blockSize int) error {
	if len(conns) == 0 {
		return errors.New("gridftp: no data channels")
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if offset < 0 || length < 0 {
		return fmt.Errorf("gridftp: negative range (%d,%d)", offset, length)
	}
	nblocks := (length + int64(blockSize) - 1) / int64(blockSize)
	errs := make(chan error, len(conns))
	for ci := range conns {
		go func(ci int) {
			buf := make([]byte, blockSize)
			for bi := int64(ci); bi < nblocks; bi += int64(len(conns)) {
				at := offset + bi*int64(blockSize)
				n := int64(blockSize)
				if at+n > offset+length {
					n = offset + length - at
				}
				if _, err := src.ReadAt(buf[:n], at); err != nil && err != io.EOF {
					errs <- fmt.Errorf("gridftp: reading source at %d: %w", at, err)
					return
				}
				if err := WriteBlock(conns[ci], Block{Offset: uint64(at), Payload: buf[:n]}); err != nil {
					errs <- err
					return
				}
			}
			// Terminate this channel; channel 0 also announces the count.
			term := Block{Desc: DescEOD}
			if ci == 0 {
				term.Desc |= DescEOF
				term.Offset = uint64(len(conns))
			}
			errs <- WriteBlock(conns[ci], term)
		}(ci)
	}
	var first error
	for range conns {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ReceiveBlocks drains MODE E data channels into dst. It returns the total
// payload bytes written. Completion requires seeing the EOF marker and as
// many EODs as the marker announced; conns may be fewer than that only if
// more arrive via the accept callback (server STOR), so ReceiveBlocks
// handles exactly the channels it is given and reports whether the stream
// is complete.
func ReceiveBlocks[R io.Reader](conns []R, dst io.WriterAt) (total int64, channels int, eods int, err error) {
	type result struct {
		n    int64
		eods int
		chn  int
		err  error
	}
	results := make(chan result, len(conns))
	for _, c := range conns {
		go func(c R) {
			var r result
			for {
				b, err := ReadBlock(c)
				if err == io.EOF {
					break
				}
				if err != nil {
					r.err = err
					break
				}
				if len(b.Payload) > 0 {
					if _, werr := dst.WriteAt(b.Payload, int64(b.Offset)); werr != nil {
						r.err = fmt.Errorf("gridftp: writing at %d: %w", b.Offset, werr)
						break
					}
					r.n += int64(len(b.Payload))
				}
				if b.EOF() {
					r.chn = int(b.Offset)
				}
				if b.EOD() {
					r.eods++
					break
				}
			}
			results <- r
		}(c)
	}
	for range conns {
		r := <-results
		total += r.n
		eods += r.eods
		if r.chn > 0 {
			channels = r.chn
		}
		if r.err != nil && err == nil {
			err = r.err
		}
	}
	return total, channels, eods, err
}
