package pcr

import "fmt"

// Format is a storage layout for an image dataset. The package provides the
// three layouts the paper compares — PCR, TFRecord, and FilePerImage — and
// every Format flows through the same Create/Open/Scan surface, so switching
// layouts is a one-option change.
//
// The interface is sealed: implementations live in this package.
type Format interface {
	// Name is the layout's stable identifier ("pcr", "tfrecord",
	// "fileperimage"), accepted by FormatByName.
	Name() string

	create(dir string, cfg *config) (formatWriter, error)
	open(dir string, cfg *config) (formatReader, error)
}

// formatWriter is the write half a Format must provide. Samples arrive with
// JPEG bytes already resolved.
type formatWriter interface {
	append(s Sample) error
	close() error
}

// formatReader is the read half a Format must provide, beside the way it is
// scanned: the PCR reader's record plan (pipeline.go) or, for the baselines,
// a sampleScanner's stream.
type formatReader interface {
	// numImages is the total stored image count.
	numImages() int
	// qualities is the number of stored quality levels (>= 1).
	qualities() int
	// sizeAtQuality is the total bytes a full scan reads at quality q
	// (1..qualities()).
	sizeAtQuality(q int) (int64, error)
	close() error
}

// The built-in storage layouts.
var (
	// PCR stores batches of progressively-compressed images rearranged by
	// scan group, so one sequential prefix read yields every image of a
	// record at a chosen quality (the paper's format).
	PCR Format = pcrFormat{}
	// TFRecord stores one framed protobuf-style message per image with
	// TensorFlow's length+CRC framing (the record-format baseline).
	TFRecord Format = tfrecordFormat{}
	// FilePerImage stores one JPEG file per image in per-class directories
	// (the PyTorch ImageFolder baseline).
	FilePerImage Format = fpiFormat{}
)

// Formats lists the built-in layouts.
func Formats() []Format { return []Format{PCR, TFRecord, FilePerImage} }

// FormatByName resolves a layout by its Name (as used in CLI flags).
func FormatByName(name string) (Format, error) {
	for _, f := range Formats() {
		if f.Name() == name {
			return f, nil
		}
	}
	return nil, fmt.Errorf("pcr: unknown format %q (want pcr, tfrecord, or fileperimage)", name)
}
