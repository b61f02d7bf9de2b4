// Package recordio implements the baseline storage layouts the paper
// compares PCRs against (§2.1, §4.4): TFRecord-compatible framed records
// (length + masked CRC32C, the TensorFlow format) and a File-per-Image
// directory layout (PyTorch ImageFolder style, whose highly random reads
// Figure 1 contrasts with record formats). The file-per-image manifest
// (WriteManifest/ParseManifest) lists entries by dataset-relative path, so
// loaders can resolve images through any storage backend instead of
// walking a local directory tree.
package recordio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maskCRC applies TensorFlow's CRC masking so that CRCs stored alongside the
// data they cover do not collide with CRCs of that stored form.
func maskCRC(crc uint32) uint32 {
	return (crc>>15 | crc<<17) + 0xa282ead8
}

// ErrBadCRC reports a frame whose checksum does not match.
var ErrBadCRC = errors.New("recordio: crc mismatch")

// Writer emits TFRecord-framed records.
type Writer struct {
	w io.Writer
	n int64
}

// NewWriter returns a Writer framing records onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// BytesWritten reports the total bytes emitted so far.
func (w *Writer) BytesWritten() int64 { return w.n }

// Write frames one record: length(8) + crc(length)(4) + data + crc(data)(4).
func (w *Writer) Write(data []byte) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(len(data)))
	binary.LittleEndian.PutUint32(hdr[8:12], maskCRC(crc32.Checksum(hdr[0:8], castagnoli)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("recordio: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("recordio: %w", err)
	}
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], maskCRC(crc32.Checksum(data, castagnoli)))
	if _, err := w.w.Write(foot[:]); err != nil {
		return fmt.Errorf("recordio: %w", err)
	}
	w.n += int64(12 + len(data) + 4)
	return nil
}

// Reader iterates TFRecord frames.
type Reader struct {
	r    io.Reader
	left int64 // bytes r has yet to deliver
}

// NewReader returns a Reader over r, which holds size bytes. Frame lengths
// are read from the stream itself, so none may size an allocation past the
// bytes the stream has left.
func NewReader(r io.Reader, size int64) *Reader { return &Reader{r: r, left: size} }

// Next returns the next record, io.EOF at a clean end of stream, or
// io.ErrUnexpectedEOF / ErrBadCRC on damage. A frame whose length runs past
// the end of the stream is refused as io.ErrUnexpectedEOF before anything
// is allocated for it.
func (r *Reader) Next() ([]byte, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	if maskCRC(crc32.Checksum(hdr[0:8], castagnoli)) != binary.LittleEndian.Uint32(hdr[8:12]) {
		return nil, fmt.Errorf("%w (length)", ErrBadCRC)
	}
	n := binary.LittleEndian.Uint64(hdr[0:8])
	r.left -= int64(len(hdr))
	if avail := r.left - 4; avail < 0 || n > uint64(avail) {
		return nil, fmt.Errorf("recordio: %d-byte frame with %d bytes left: %w", n, max(avail, 0), io.ErrUnexpectedEOF)
	}
	r.left -= int64(n) + 4
	data := make([]byte, n)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	var foot [4]byte
	if _, err := io.ReadFull(r.r, foot[:]); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	if maskCRC(crc32.Checksum(data, castagnoli)) != binary.LittleEndian.Uint32(foot[:]) {
		return nil, fmt.Errorf("%w (data)", ErrBadCRC)
	}
	return data, nil
}

// FrameOverhead is the per-record framing cost in bytes.
const FrameOverhead = 12 + 4
