package recordio

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

// FuzzTFRecordReader feeds arbitrary bytes to the TFRecord frame reader and
// decodes every frame it returns as an Example. The oracle: nothing panics;
// every error is io.ErrUnexpectedEOF, ErrBadCRC or a wire decode error; what
// the read allocates stays within a small multiple of the input, whatever
// lengths its frames claim; a stream that reads cleanly to io.EOF is exactly
// what Writer makes of the frames read from it; and the input written as a
// frame by Writer reads back as itself.
//
// Seeds in testdata/fuzz: a clean two-frame stream, a torn footer, a flipped
// length CRC, a 2^40-byte length under a valid length CRC, and a data CRC
// mismatch.
func FuzzTFRecordReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		frames, err := readFrames(t, b)
		runtime.ReadMemStats(&after)
		// A frame's bytes are allocated once for the read and at most once
		// more for its Example's JPEG; a frame is at least 16 bytes, which
		// covers its Example and its slot in frames; the constant covers error
		// values.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(8*len(b))+64<<10 {
			t.Fatalf("reading %d bytes allocated %d", len(b), grew)
		}
		if err == nil {
			var out bytes.Buffer
			w := NewWriter(&out)
			for _, frame := range frames {
				if err := w.Write(frame); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(out.Bytes(), b) {
				t.Fatalf("%d frames read cleanly from %d bytes rewrite as %d other bytes", len(frames), len(b), out.Len())
			}
		}

		var stream bytes.Buffer
		if err := NewWriter(&stream).Write(b); err != nil {
			t.Fatal(err)
		}
		r := NewReader(&stream, int64(stream.Len()))
		got, err := r.Next()
		if err != nil || !bytes.Equal(got, b) {
			t.Fatalf("a written %d-byte frame read back as %d bytes, %v", len(b), len(got), err)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("after the one frame: %v, want io.EOF", err)
		}
	})
}

// readFrames reads b to its end, decoding each frame as an Example. It
// returns the frames and nil at a clean io.EOF, or the first error, which
// must be one the reader or the decoder documents.
func readFrames(t *testing.T, b []byte) ([][]byte, error) {
	r := NewReader(bytes.NewReader(b), int64(len(b)))
	var frames [][]byte
	for {
		frame, err := r.Next()
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrBadCRC) {
				t.Fatalf("reader error of an undocumented kind: %v", err)
			}
			return frames, err
		}
		if _, err := UnmarshalExample(frame); err != nil {
			if msg := err.Error(); !strings.HasPrefix(msg, "wire: ") && !strings.HasPrefix(msg, "recordio: ") {
				t.Fatalf("example error that is not a decode error: %v", err)
			}
		}
		frames = append(frames, frame)
	}
}
