package jpegc

import (
	"fmt"
	"sync"
)

// scratch is the working state of one Encode, Decode or Transcode call.
// Everything in it is sized by the largest image seen and reused from image
// to image through scratchPool, so that a transcode allocates little beyond
// the stream it returns.
type scratch struct {
	// geo carries the geometry and quantization tables of the image being
	// worked on.
	geo coeffImage
	// blocks[c] is component c's coefficients, in zigzag order. The
	// analysis and the decoder write it, the encoder and the inverse DCT
	// read it.
	blocks [3][]block
	// lastNZ[c][i] is the zigzag index of block i's last non-zero
	// coefficient, 0 when only the DC term or nothing is set. The analysis
	// and the decoder keep it exact as they write: each records the highest
	// index at which it leaves a non-zero value, and the decoder writes no
	// AC zero. Neither seal, the encoder's scans nor the inverse DCT look
	// past it.
	lastNZ [3][]uint8
	// sig[c][i] is block i's significance bitmaps, which seal records and
	// the encoder's scans walk. Only the encode path sizes them.
	sig [3][]sigMasks

	// order is the interleaved scan being coded and orderKey what it is
	// the order of; scanOrder alone writes them.
	order    []blockRef
	orderKey orderKey
	toks     []uint32 // the scan being encoded, as tokens
	freq     [4]freqCounter
	spec     [4]huffSpec
	enc      [4]huffEncoder
	w        bitWriter // w.out is the stream being assembled

	// tables are the decoder's tables for the first memoTables Huffman
	// table definitions of a stream, by the definition's position in it,
	// each kept with the bytes it was built from (parseDHT); dcTab and
	// acTab, by DHT slot, take the definitions past them.
	tables       [memoTables]builtTable
	dcTab, acTab [4]huffDecoder
}

// memoTables is how many of a stream's Huffman table definitions a scratch
// remembers. The default scan scripts define 10 (color) and 5 (grayscale),
// a baseline stream at most 4.
const memoTables = 16

// builtTable is a table definition as a DHT segment carries it — the
// class/id byte, the 16 counts, the symbols — and the table built from it,
// whose vals point into spec. T.81 B.4 lets a table be defined once for
// several streams; a PCR record does the same in its own way, each of its
// samples repeating one set of definitions at the same positions, so a
// scratch that decodes a run of them builds each table once.
type builtTable struct {
	spec []byte
	tab  huffDecoder
}

// orderKey is what an interleaved scan order depends on: the image's
// geometry and the scan's components.
type orderKey struct {
	width, height, ncomp int
	subsample420         bool
	comps                [3]int
	n                    int
}

// scanOrder returns every block of comps in the order a scan codes them
// (coeffImage.mcuOrder). It keeps the order in s.order and builds it again
// only when the geometry or the components differ from the last call's, so
// the scans of a run of same-sized images share one.
func (s *scratch) scanOrder(comps []int) []blockRef {
	key := orderKey{width: s.geo.Width, height: s.geo.Height, ncomp: s.geo.NumComps,
		subsample420: s.geo.Subsample420, n: len(comps)}
	copy(key.comps[:], comps) // a scan has at most three
	if key != s.orderKey {
		s.order = s.geo.mcuOrder(s.order[:0], comps)
		s.orderKey = key
	}
	return s.order
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// setGeometry adopts geo and sizes the working blocks for it, zeroed.
func (s *scratch) setGeometry(geo *coeffImage) {
	s.geo = *geo
	for c := 0; c < geo.NumComps; c++ {
		bw, bh := geo.compBlocks(c)
		n := bw * bh
		if cap(s.blocks[c]) < n {
			s.blocks[c] = make([]block, n)
			s.lastNZ[c] = make([]uint8, n)
		}
		s.blocks[c] = s.blocks[c][:n]
		s.lastNZ[c] = s.lastNZ[c][:n]
		clear(s.blocks[c])
		clear(s.lastNZ[c])
	}
}

// sigLevels is how many point transforms the significance bitmaps cover:
// Al = 0, 1 and 2, every one the default scan scripts use.
const sigLevels = 3

// sigMasks are one block's significance bitmaps: bit k of sigMasks[al] is
// set when the AC coefficient at zigzag index k is non-zero after the point
// transform al, that is |v| ≥ 1<<al. Bit 0, the DC term, is never set.
type sigMasks [sigLevels]uint64

// seal makes the working blocks ready to encode. It checks every
// coefficient against the T.81 limits for 8-bit precision — quantized DC
// values stay in the pixel-domain range [-1024, 1023] (so DC differences
// fit category ≤ 11) and AC magnitudes fit category ≤ 10; values outside
// these ranges have no Huffman representation in baseline mode — and, in
// the same pass, records each block's significance bitmaps for the scans
// to walk. It trusts lastNZ, which the analysis and the decoder leave
// exact: nothing past it is non-zero, so nothing past it is read.
func (s *scratch) seal() error {
	for c := 0; c < s.geo.NumComps; c++ {
		blocks, last := s.blocks[c], s.lastNZ[c]
		if cap(s.sig[c]) < len(blocks) {
			s.sig[c] = make([]sigMasks, len(blocks))
		}
		sig := s.sig[c][:len(blocks)]
		s.sig[c] = sig
		for i := range blocks {
			blk := &blocks[i]
			if blk[0] < -1024 || blk[0] > 1023 {
				return fmt.Errorf("jpegc: component %d block %d: DC %d out of [-1024, 1023]", c, i, blk[0])
			}
			// The OR of the AC magnitudes is within the limit exactly when
			// each of them is. Each bitmap bit is the sign of a difference:
			// no branch on a coefficient.
			var m sigMasks
			var mags int64
			for j, v := range blk[1 : int(last[i])+1] {
				a := int64(v)
				a = (a ^ a>>63) - a>>63
				mags |= a
				k := uint(j+1) & 63
				m[0] |= uint64(-a) >> 63 << k
				m[1] |= uint64(1-a) >> 63 << k
				m[2] |= uint64(3-a) >> 63 << k
			}
			if mags > 1023 {
				for _, v := range blk[1 : int(last[i])+1] {
					if v < -1023 || v > 1023 {
						return fmt.Errorf("jpegc: component %d block %d: AC %d out of [-1023, 1023]", c, i, v)
					}
				}
			}
			sig[i] = m
		}
	}
	return nil
}
