// Package jpegc is a JPEG (ITU-T T.81) codec for the subset of the format
// Progressive Compressed Records are made of. It has what the standard
// library does not provide: progressive encoding — spectral selection and
// successive approximation — coefficient-level (lossless) transcoding
// between baseline and progressive representations, and a scan-boundary
// scanner; and it has the read path's decoder, because a training job
// spends its time there.
//
// image/jpeg decodes progressive JPEG but cannot encode it, and it exposes
// neither scan boundaries nor DCT coefficients. Progressive Compressed
// Records need all three: the PCR encoder plays the role of jpegtran
// (lossless baseline→progressive transform) followed by a marker scan that
// locates the byte ranges of each scan.
//
// Decode reconstructs pixels here too: the entropy decoder the transcode
// uses, then a dequantization and inverse DCT of each block straight from
// the pooled scratch into the image returned (idct.go). A decode then costs
// what its scans hold — a block is transformed no further than its last
// non-zero coefficient, and a two-scan prefix is mostly DC-only blocks,
// each one fill — and allocates the image and nothing else, where
// image/jpeg allocates and zeroes every coefficient of the frame and
// transforms every block in full whatever the prefix left empty. The
// transform is the fixed-point one image/jpeg uses, rounding point for
// rounding point, so the samples are the standard library's exactly; tests
// hold Decode to that oracle. A well-formed stream outside the subset below
// is declined with ErrUnsupported and Decode hands it to image/jpeg.
//
// The entropy coding is built for the transcode, which is nearly all of an
// ingest's time, and Decode shares it. The decoder reads Huffman codes
// through an 8-bit look-up table with the canonical procedure behind it,
// from a bit reader that removes stuff bytes as it fills; the encoder walks
// each scan's coefficients once, counting symbols and recording them as
// tokens, builds the scan's optimal tables, and replays the tokens through
// them. Both work on zigzag-ordered blocks held, with every table and
// buffer, in one pooled scratch (scratch.go), so Transcode allocates little
// but its result. The bytes produced are pinned by golden hashes: same scan
// script, same tables, same tie-breaks as libjpeg's optimizer.
//
// The codec is deliberately restricted to the subset the PCR system needs:
//
//   - 8-bit samples, grayscale (1 component) or YCbCr (3 components)
//   - 4:4:4 and 4:2:0 sampling (the latter is what photographic JPEG uses)
//   - Huffman entropy coding with per-scan optimized tables
//   - no restart markers, no arithmetic coding, no hierarchical mode
//
// Streams produced here are valid interchange-format JPEG: tests verify that
// image/jpeg accepts them, whole and as scan prefixes, and reconstructs the
// source pixels.
package jpegc

import (
	"errors"
	"fmt"
)

// Component identifiers used in SOF/SOS headers.
const (
	compY  = 1
	compCb = 2
	compCr = 3
)

// Block holds the 64 quantized DCT coefficients of one 8×8 block in natural
// (row-major) order.
type Block [64]int32

// CoeffImage is the coefficient-domain representation of a JPEG image: the
// quantized DCT coefficients of every block of every component, plus the
// quantization tables needed to reconstruct pixels. Two CoeffImages with
// equal contents decode to identical pixels, which is what makes
// baseline↔progressive transcoding lossless.
type CoeffImage struct {
	Width, Height int
	// NumComps is 1 for grayscale, 3 for YCbCr.
	NumComps int
	// Subsample420 marks 4:2:0 chroma subsampling (luma at 2×2 sampling
	// factors, chroma at half resolution each way). False means 4:4:4.
	Subsample420 bool
	// Blocks[c] holds component c's blocks in row-major order,
	// CompBlocksWide(c)×CompBlocksHigh(c) of them.
	Blocks [3][]Block
	// Quant[0] is the luma table, Quant[1] the chroma table, both in
	// natural order. Grayscale images use only Quant[0].
	Quant [2][64]uint16
}

// BlocksWide reports the luma block-column count.
func (ci *CoeffImage) BlocksWide() int { return (ci.Width + 7) / 8 }

// BlocksHigh reports the luma block-row count.
func (ci *CoeffImage) BlocksHigh() int { return (ci.Height + 7) / 8 }

// sampling returns component c's horizontal and vertical sampling factors.
func (ci *CoeffImage) sampling(c int) (h, v int) {
	if ci.Subsample420 && ci.NumComps == 3 && c == 0 {
		return 2, 2
	}
	return 1, 1
}

// compSize returns component c's sample dimensions.
func (ci *CoeffImage) compSize(c int) (w, h int) {
	if ci.Subsample420 && ci.NumComps == 3 && c > 0 {
		return (ci.Width + 1) / 2, (ci.Height + 1) / 2
	}
	return ci.Width, ci.Height
}

// CompBlocksWide returns component c's block-column count.
func (ci *CoeffImage) CompBlocksWide(c int) int {
	w, _ := ci.compSize(c)
	return (w + 7) / 8
}

// CompBlocksHigh returns component c's block-row count.
func (ci *CoeffImage) CompBlocksHigh(c int) int {
	_, h := ci.compSize(c)
	return (h + 7) / 8
}

// mcuDims returns the MCU grid for interleaved scans: with 4:2:0 an MCU
// covers 16×16 luma samples; with 4:4:4, 8×8.
func (ci *CoeffImage) mcuDims() (mw, mh int) {
	if ci.Subsample420 && ci.NumComps == 3 {
		return (ci.Width + 15) / 16, (ci.Height + 15) / 16
	}
	return ci.BlocksWide(), ci.BlocksHigh()
}

// blockRef names one block of an interleaved scan: block idx of component
// comp. pad marks a block beyond the component's real grid (MCU padding at
// the right/bottom edges), for which idx is the clamped index of the nearest
// real block — encoders emit that block's data again, decoders discard the
// decoded values.
type blockRef struct {
	idx  int32
	comp uint8
	pad  bool
}

// mcuOrder appends to dst every block of every listed component in the
// order a scan codes them (T.81 A.2.3). Components with 2×2 sampling
// contribute four blocks per MCU.
func (ci *CoeffImage) mcuOrder(dst []blockRef, comps []int) []blockRef {
	if len(comps) == 1 {
		// A single-component scan is non-interleaved by definition
		// (T.81 A.2): it rasters the component's own block grid with no
		// MCU padding.
		c := comps[0]
		n := ci.CompBlocksWide(c) * ci.CompBlocksHigh(c)
		for i := 0; i < n; i++ {
			dst = append(dst, blockRef{idx: int32(i), comp: uint8(c)})
		}
		return dst
	}
	mw, mh := ci.mcuDims()
	for my := 0; my < mh; my++ {
		for mx := 0; mx < mw; mx++ {
			for _, c := range comps {
				hc, vc := ci.sampling(c)
				bw, bh := ci.CompBlocksWide(c), ci.CompBlocksHigh(c)
				for v := 0; v < vc; v++ {
					for u := 0; u < hc; u++ {
						row, col := my*vc+v, mx*hc+u
						pad := row >= bh || col >= bw
						row, col = min(row, bh-1), min(col, bw-1)
						dst = append(dst, blockRef{idx: int32(row*bw + col), comp: uint8(c), pad: pad})
					}
				}
			}
		}
	}
	return dst
}

// Equal reports whether two coefficient images are identical: same geometry,
// quantization tables, and every coefficient of every block.
func (ci *CoeffImage) Equal(other *CoeffImage) bool {
	if ci.Width != other.Width || ci.Height != other.Height || ci.NumComps != other.NumComps {
		return false
	}
	if ci.Subsample420 != other.Subsample420 {
		return false
	}
	nq := 1
	if ci.NumComps == 3 {
		nq = 2
	}
	for q := 0; q < nq; q++ {
		if ci.Quant[q] != other.Quant[q] {
			return false
		}
	}
	for c := 0; c < ci.NumComps; c++ {
		if len(ci.Blocks[c]) != len(other.Blocks[c]) {
			return false
		}
		for i := range ci.Blocks[c] {
			if ci.Blocks[c][i] != other.Blocks[c][i] {
				return false
			}
		}
	}
	return true
}

// validateGeometry checks everything about ci but its coefficient values,
// which scratch.load checks as it copies them.
func (ci *CoeffImage) validateGeometry() error {
	if ci.Width <= 0 || ci.Height <= 0 {
		return fmt.Errorf("jpegc: invalid dimensions %dx%d", ci.Width, ci.Height)
	}
	if ci.NumComps != 1 && ci.NumComps != 3 {
		return fmt.Errorf("jpegc: unsupported component count %d", ci.NumComps)
	}
	if ci.Subsample420 && ci.NumComps != 3 {
		return fmt.Errorf("jpegc: 4:2:0 subsampling requires 3 components")
	}
	for c := 0; c < ci.NumComps; c++ {
		want := ci.CompBlocksWide(c) * ci.CompBlocksHigh(c)
		if len(ci.Blocks[c]) != want {
			return fmt.Errorf("jpegc: component %d has %d blocks, want %d", c, len(ci.Blocks[c]), want)
		}
	}
	return nil
}

// ErrTruncated is returned by DecodeCoeffs, Decode and IndexScans when the
// stream ends before an EOI marker, and by the two decoders when a scan's
// entropy-coded data ends before the scan does. Progressive reconstructions from complete
// scan prefixes are not truncated in this sense: the PCR reader appends EOI
// to the prefix.
var ErrTruncated = errors.New("jpegc: truncated stream")

// ErrUnsupported is wrapped by the errors DecodeCoeffs, Decode's parser and
// Transcode return for a stream that is well formed but outside this
// package's subset (see the package comment): other sampling factors or
// component counts, restart intervals, 16-bit quantization tables, frame
// types other than baseline and progressive Huffman. Decode hands such a
// stream to image/jpeg; a corrupt stream is never this error.
var ErrUnsupported = errors.New("jpegc: unsupported JPEG feature")

// zigzag maps a zigzag-order index to natural (row-major) order.
var zigzag = [64]uint8{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}
