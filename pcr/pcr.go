// Package pcr is the public entry point to the Progressive Compressed
// Records reproduction (Kuchnik, Amvrosiadis, Smith — VLDB 2021). It exposes
// the three storage layouts the paper compares behind one Format interface,
// constructs datasets with functional options, and streams samples through a
// cancellable, cache-aware, concurrently-decoding Scan iterator.
//
// Create a dataset and stream it back:
//
//	w, err := pcr.Create(dir, pcr.WithImagesPerRecord(64))
//	...
//	w.Append(pcr.Sample{ID: 1, Label: 3, JPEG: jpg})
//	w.Close()
//
//	ds, err := pcr.Open(dir)
//	defer ds.Close()
//	for s, err := range ds.Scan(ctx, 2) { // quality = scan group 2
//		...
//	}
//
// Switching the storage layout is one option — the rest of the program is
// unchanged:
//
//	w, err := pcr.Create(dir, pcr.WithFormat(pcr.TFRecord))
//
// Quality levels: PCR datasets expose one quality level per scan group
// (1 = coarsest prefix, Dataset.Qualities() = full fidelity); the baseline
// formats expose a single level. pcr.Full always selects the highest.
package pcr

import (
	"errors"
	"image"

	"repro/internal/core"
)

// Full selects the highest quality a dataset offers (all scan groups).
const Full = 0

// ErrCorrupt reports structural damage — a truncated record, bad framing
// CRC, bad magic, or unparseable metadata — as opposed to transient I/O
// errors, which are returned unwrapped. Test with errors.Is.
var ErrCorrupt = core.ErrCorrupt

// ErrNoSuchQuality reports a quality level the dataset does not store
// (outside [1, Qualities()], and not Full).
var ErrNoSuchQuality = errors.New("pcr: no such quality level")

// ErrClosed reports use of a closed Writer or Dataset.
var ErrClosed = errors.New("pcr: closed")

// Sample is one labeled image. Append consumes JPEG (or encodes Image when
// JPEG is empty); Scan fills both JPEG (the reassembled stream at the
// requested quality) and Image (its decoded pixels); ScanEncoded fills JPEG
// only. A JPEG a read delivers is the caller's, except under Loader.Epoch,
// which lends it (see Batch). It shares a buffer of at most 1 MiB only with
// other samples of the same record read, with no room to grow into theirs,
// and everywhere but Loader.Epoch never aliases a buffer the reader reuses.
// A caller that keeps a few samples of many records should bytes.Clone
// them, so that each does not pin the rest of its read.
type Sample struct {
	ID    int64
	Label int64
	JPEG  []byte
	Image image.Image
}
