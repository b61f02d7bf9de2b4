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
// each one fill — and allocates the image and nothing else (DecodeInto, given
// a frame of the same geometry, not even that), where image/jpeg allocates
// and zeroes every coefficient of the frame and transforms every block in
// full whatever the prefix left empty. A scratch remembers the Huffman
// tables it built and the scan order it last walked, so a run of streams
// that share their table definitions and geometry, as a PCR record's
// samples do, pays for them once. The
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
// them. The coefficients have one form: zigzag-ordered blocks held, with
// every table and buffer, in one pooled scratch (scratch.go), which Encode's
// analysis and the decoder write and the encoder and the inverse DCT read —
// so Transcode allocates little but its result, and no coefficient leaves
// the package: streams and images go in, streams and images come out. The
// bytes produced are pinned by golden hashes: same scan script, same tables,
// same tie-breaks as libjpeg's optimizer.
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

import "errors"

// Component identifiers used in SOF/SOS headers.
const (
	compY  = 1
	compCb = 2
	compCr = 3
)

// block holds the 64 quantized DCT coefficients of one 8×8 block in zigzag
// order, the order scans code them in: a scan's band Ss..Se is a contiguous
// run of each block.
type block [64]int32

// coeffImage is the geometry of the image being coded and the quantization
// tables that reconstruct its pixels — everything about it but the
// coefficients, which the scratch holds (scratch.go).
type coeffImage struct {
	Width, Height int
	// NumComps is 1 for grayscale, 3 for YCbCr.
	NumComps int
	// Subsample420 marks 4:2:0 chroma subsampling (luma at 2×2 sampling
	// factors, chroma at half resolution each way). False means 4:4:4.
	Subsample420 bool
	// Quant[0] is the luma table, Quant[1] the chroma table, both in
	// natural order. Grayscale images use only Quant[0].
	Quant [2][64]uint16
}

// sampling returns component c's horizontal and vertical sampling factors.
func (ci *coeffImage) sampling(c int) (h, v int) {
	if ci.Subsample420 && ci.NumComps == 3 && c == 0 {
		return 2, 2
	}
	return 1, 1
}

// compSize returns component c's sample dimensions.
func (ci *coeffImage) compSize(c int) (w, h int) {
	if ci.Subsample420 && ci.NumComps == 3 && c > 0 {
		return (ci.Width + 1) / 2, (ci.Height + 1) / 2
	}
	return ci.Width, ci.Height
}

// compBlocks returns component c's block grid: its columns and rows.
func (ci *coeffImage) compBlocks(c int) (bw, bh int) {
	w, h := ci.compSize(c)
	return (w + 7) / 8, (h + 7) / 8
}

// mcuDims returns the MCU grid for interleaved scans: with 4:2:0 an MCU
// covers 16×16 luma samples; with 4:4:4, 8×8.
func (ci *coeffImage) mcuDims() (mw, mh int) {
	if ci.Subsample420 && ci.NumComps == 3 {
		return (ci.Width + 15) / 16, (ci.Height + 15) / 16
	}
	return ci.compBlocks(0)
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
func (ci *coeffImage) mcuOrder(dst []blockRef, comps []int) []blockRef {
	if len(comps) == 1 {
		// A single-component scan is non-interleaved by definition
		// (T.81 A.2): it rasters the component's own block grid with no
		// MCU padding.
		c := comps[0]
		bw, bh := ci.compBlocks(c)
		for i := 0; i < bw*bh; i++ {
			dst = append(dst, blockRef{idx: int32(i), comp: uint8(c)})
		}
		return dst
	}
	// Each component's sampling factors and block grid, worked out once.
	type compGrid struct{ c, hc, vc, bw, bh int }
	var grids [3]compGrid
	for i, c := range comps {
		g := &grids[i]
		g.c = c
		g.hc, g.vc = ci.sampling(c)
		g.bw, g.bh = ci.compBlocks(c)
	}
	mw, mh := ci.mcuDims()
	for my := 0; my < mh; my++ {
		for mx := 0; mx < mw; mx++ {
			for _, g := range grids[:len(comps)] {
				for v := 0; v < g.vc; v++ {
					for u := 0; u < g.hc; u++ {
						row, col := my*g.vc+v, mx*g.hc+u
						pad := row >= g.bh || col >= g.bw
						row, col = min(row, g.bh-1), min(col, g.bw-1)
						dst = append(dst, blockRef{idx: int32(row*g.bw + col), comp: uint8(g.c), pad: pad})
					}
				}
			}
		}
	}
	return dst
}

// ErrTruncated is returned by Decode, Transcode and IndexScans when the
// stream ends before an EOI marker, and by Decode and Transcode when a
// scan's entropy-coded data ends before the scan does. Progressive
// reconstructions from complete scan prefixes are not truncated in this
// sense: the PCR reader appends EOI to the prefix.
var ErrTruncated = errors.New("jpegc: truncated stream")

// ErrUnsupported is wrapped by the errors Decode's parser and Transcode
// return for a stream that is well formed but outside this package's subset
// (see the package comment): other sampling factors or component counts,
// restart intervals, 16-bit quantization tables, frame types other than
// baseline and progressive Huffman. Decode hands such a stream to
// image/jpeg; a corrupt stream is never this error.
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
