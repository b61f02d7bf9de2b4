package pcr

import (
	"fmt"

	"repro/internal/jpegc"
)

// Writer appends samples to a dataset being created. It is not safe for
// concurrent use.
type Writer struct {
	fw     formatWriter
	cfg    *config
	n      int
	closed bool
}

// Create initializes a new dataset at dir in the configured Format (PCR by
// default) and returns a Writer for it.
func Create(dir string, opts ...Option) (*Writer, error) {
	cfg, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	fw, err := cfg.format.create(dir, cfg)
	if err != nil {
		return nil, err
	}
	return &Writer{fw: fw, cfg: cfg}, nil
}

// Append adds one sample. When s.JPEG is empty and s.Image is set, the image
// is encoded first to a baseline stream (4:2:0 chroma subsampling at the
// WithJPEGQuality level, matching how photographic datasets are stored),
// whatever the format: a PCR record is coded from its inputs' coefficients,
// so a progressive encode here would only be decoded again.
func (w *Writer) Append(s Sample) error {
	if w.closed {
		return fmt.Errorf("pcr: append: %w", ErrClosed)
	}
	if len(s.JPEG) == 0 {
		if s.Image == nil {
			return fmt.Errorf("pcr: sample %d has neither JPEG bytes nor an image", s.ID)
		}
		data, err := jpegc.Encode(s.Image, &jpegc.Options{Quality: w.cfg.jpegQuality, Subsample420: true})
		if err != nil {
			return fmt.Errorf("pcr: encoding sample %d: %w", s.ID, err)
		}
		s.JPEG = data
	}
	if err := w.fw.append(s); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count reports the samples appended so far.
func (w *Writer) Count() int { return w.n }

// Close flushes pending records and the dataset metadata. It is idempotent.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.fw.close()
}
