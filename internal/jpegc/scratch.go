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
	// coefficient, 0 when only the DC term or nothing is set: exactly that
	// once sealed, and while decoding the highest index a scan has written.
	// Neither the encoder's scans nor the inverse DCT look past it.
	lastNZ [3][]uint8

	order []blockRef // the interleaved scan being coded, from mcuOrder
	toks  []uint32   // the scan being encoded, as tokens
	freq  [4]freqCounter
	spec  [4]huffSpec
	enc   [4]huffEncoder
	w     bitWriter // w.out is the stream being assembled

	dcTab, acTab [4]huffDecoder // the decoder's tables, by DHT slot
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

// seal makes the working blocks ready to encode: it checks every
// coefficient against the T.81 limits for 8-bit precision — quantized DC
// values stay in the pixel-domain range [-1024, 1023] (so DC differences
// fit category ≤ 11) and AC magnitudes fit category ≤ 10; values outside
// these ranges have no Huffman representation in baseline mode — and records
// each block's last non-zero index.
func (s *scratch) seal() error {
	for c := 0; c < s.geo.NumComps; c++ {
		last := s.lastNZ[c]
		for i := range s.blocks[c] {
			blk := &s.blocks[c][i]
			// The OR of the AC magnitudes is within the limit exactly when
			// each of them is.
			var mags uint32
			for _, v := range blk[1:] {
				neg := v >> 31
				mags |= uint32((v ^ neg) - neg)
			}
			if blk[0] < -1024 || blk[0] > 1023 {
				return fmt.Errorf("jpegc: component %d block %d: DC %d out of [-1024, 1023]", c, i, blk[0])
			}
			if mags > 1023 {
				for _, v := range blk[1:] {
					if v < -1023 || v > 1023 {
						return fmt.Errorf("jpegc: component %d block %d: AC %d out of [-1023, 1023]", c, i, v)
					}
				}
			}
			nz := 63
			for nz > 0 && blk[nz] == 0 {
				nz--
			}
			last[i] = uint8(nz)
		}
	}
	return nil
}
