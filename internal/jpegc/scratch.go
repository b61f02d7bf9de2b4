package jpegc

import (
	"fmt"
	"sync"
)

// scratch is the working state of one DecodeCoeffs, EncodeCoeffs or
// Transcode call. Everything in it is sized by the largest image seen and
// reused from image to image through scratchPool, so that a transcode
// allocates little beyond the stream it returns.
type scratch struct {
	// geo carries the geometry and quantization tables of the image being
	// worked on; its Blocks are unused.
	geo CoeffImage
	// blocks[c] is component c's coefficients in zigzag order (unlike
	// CoeffImage.Blocks, which is in natural order): a scan's band Ss..Se
	// is then a contiguous run of each block. The decoder writes it,
	// the encoder walks it.
	blocks [3][]Block
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

// setGeometry adopts geo's geometry and quantization tables and sizes the
// working blocks for it, zeroed.
func (s *scratch) setGeometry(geo *CoeffImage) {
	s.geo = CoeffImage{
		Width:        geo.Width,
		Height:       geo.Height,
		NumComps:     geo.NumComps,
		Subsample420: geo.Subsample420,
		Quant:        geo.Quant,
	}
	for c := 0; c < geo.NumComps; c++ {
		n := geo.CompBlocksWide(c) * geo.CompBlocksHigh(c)
		if cap(s.blocks[c]) < n {
			s.blocks[c] = make([]Block, n)
			s.lastNZ[c] = make([]uint8, n)
		}
		s.blocks[c] = s.blocks[c][:n]
		s.lastNZ[c] = s.lastNZ[c][:n]
		clear(s.blocks[c])
		clear(s.lastNZ[c])
	}
}

// load copies ci into the working blocks, in zigzag order, and seals them.
func (s *scratch) load(ci *CoeffImage) error {
	if err := ci.validateGeometry(); err != nil {
		return err
	}
	s.setGeometry(ci)
	for c := 0; c < ci.NumComps; c++ {
		for i := range ci.Blocks[c] {
			src, dst := &ci.Blocks[c][i], &s.blocks[c][i]
			for k, nat := range zigzag {
				dst[k] = src[nat]
			}
		}
	}
	return s.seal()
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

// export returns the working blocks as a CoeffImage of its own, in natural
// order.
func (s *scratch) export() *CoeffImage {
	ci := s.geo
	for c := 0; c < ci.NumComps; c++ {
		ci.Blocks[c] = make([]Block, len(s.blocks[c]))
		for i := range s.blocks[c] {
			src, dst := &s.blocks[c][i], &ci.Blocks[c][i]
			for k, nat := range zigzag {
				dst[nat] = src[k]
			}
		}
	}
	return &ci
}
