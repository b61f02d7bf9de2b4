package pcr

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/recordio"
	"repro/internal/wire"
)

// tfrecordFormat stores the dataset as one TFRecord file of framed samples
// (length + masked CRC32C per frame, one frame per image) plus a small meta
// sidecar with the image count. It exposes a single quality level.
type tfrecordFormat struct{}

func (tfrecordFormat) Name() string { return "tfrecord" }

const (
	tfrecordDataFile = "data.tfrecord"
	tfrecordMetaFile = "tfrecord.meta"
)

func (tfrecordFormat) create(dir string, cfg *config) (formatWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pcr: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, tfrecordDataFile))
	if err != nil {
		return nil, fmt.Errorf("pcr: %w", err)
	}
	bw := bufio.NewWriter(f)
	return &tfrecordWriter{dir: dir, f: f, bw: bw, rw: recordio.NewWriter(bw)}, nil
}

type tfrecordWriter struct {
	dir   string
	f     *os.File
	bw    *bufio.Writer
	rw    *recordio.Writer
	count int
}

func (w *tfrecordWriter) append(s Sample) error {
	ex := recordio.Example{ID: s.ID, Label: s.Label, JPEG: s.JPEG}
	if err := w.rw.Write(ex.Marshal()); err != nil {
		return err
	}
	w.count++
	return nil
}

func (w *tfrecordWriter) close() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("pcr: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("pcr: %w", err)
	}
	enc := wire.NewEncoder(nil)
	enc.Uint64(1, uint64(w.count))
	enc.Uint64(2, uint64(w.rw.BytesWritten()))
	if err := os.WriteFile(filepath.Join(w.dir, tfrecordMetaFile), enc.Encode(), 0o644); err != nil {
		return fmt.Errorf("pcr: %w", err)
	}
	return nil
}

func (tfrecordFormat) open(dir string, cfg *config) (formatReader, error) {
	backend := core.NewDirBackend(dir)
	rc, err := backend.Open(tfrecordMetaFile)
	if err != nil {
		return nil, fmt.Errorf("pcr: tfrecord metadata missing: %w", err)
	}
	raw, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, fmt.Errorf("pcr: %w", err)
	}
	r := &tfrecordReader{backend: backend}
	if err := parseTFRecordMeta(raw, r); err != nil {
		return nil, fmt.Errorf("pcr: %w: tfrecord metadata: %w", ErrCorrupt, err)
	}
	return r, nil
}

func parseTFRecordMeta(raw []byte, r *tfrecordReader) error {
	d := wire.NewDecoder(raw)
	for !d.Done() {
		field, wtype, err := d.Next()
		if err != nil {
			return err
		}
		switch field {
		case 1:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			r.count = int(v)
		case 2:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			r.bytes = int64(v)
		default:
			if err := d.Skip(wtype); err != nil {
				return err
			}
		}
	}
	return nil
}

type tfrecordReader struct {
	backend *core.DirBackend
	count   int
	bytes   int64
}

func (r *tfrecordReader) numImages() int { return r.count }
func (r *tfrecordReader) qualities() int { return 1 }
func (r *tfrecordReader) close() error   { return r.backend.Close() }

func (r *tfrecordReader) sizeAtQuality(q int) (int64, error) { return r.bytes, nil }

func (r *tfrecordReader) scanEncoded(ctx context.Context, q int) iter.Seq2[Sample, error] {
	return func(yield func(Sample, error) bool) {
		f, err := r.backend.Open(tfrecordDataFile)
		if err != nil {
			yield(Sample{}, fmt.Errorf("pcr: %w", err))
			return
		}
		defer f.Close()
		// Frame lengths are read from the file, so its size bounds them. A
		// DirBackend object is the *os.File itself.
		st, err := f.(*os.File).Stat()
		if err != nil {
			yield(Sample{}, fmt.Errorf("pcr: %w", err))
			return
		}
		rr := recordio.NewReader(bufio.NewReader(f), st.Size())
		for {
			if err := ctx.Err(); err != nil {
				yield(Sample{}, err)
				return
			}
			frame, err := rr.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if errors.Is(err, recordio.ErrBadCRC) || errors.Is(err, io.ErrUnexpectedEOF) {
					err = fmt.Errorf("pcr: %w: %w", ErrCorrupt, err)
				}
				yield(Sample{}, err)
				return
			}
			// The frame already passed its CRC, so a wire-level failure
			// here means garbage we wrote, or a foreign file: ErrCorrupt
			// either way.
			ex, err := recordio.UnmarshalExample(frame)
			if err != nil {
				yield(Sample{}, fmt.Errorf("pcr: %w: tfrecord frame: %w", ErrCorrupt, err))
				return
			}
			if !yield(Sample{ID: ex.ID, Label: ex.Label, JPEG: ex.JPEG}, nil) {
				return
			}
		}
	}
}
