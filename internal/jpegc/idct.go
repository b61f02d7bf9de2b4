package jpegc

import (
	"encoding/binary"
	"image"
)

// pixels reconstructs the image whose coefficients the working blocks hold,
// decoded but not necessarily sealed, into reuse when that is a frame of the
// same geometry, or else into a new one. Each plane is sized as image/jpeg
// sizes it — whole MCUs, of which Rect shows the frame — so a caller cannot
// tell the two decoders' images apart by their geometry; and every sample of
// it is written, so neither can tell a reused frame from a new one.
func (s *scratch) pixels(reuse image.Image) image.Image {
	geo := &s.geo
	frame := image.Rect(0, 0, geo.Width, geo.Height)
	mw, mh := geo.mcuDims()
	if geo.NumComps == 1 {
		w, h := 8*mw, 8*mh
		img, ok := reuse.(*image.Gray)
		if !ok || img.Stride != w || len(img.Pix) != w*h {
			img = image.NewGray(image.Rect(0, 0, w, h))
		}
		s.plane(0, img.Pix, img.Stride)
		img.Rect = frame
		return img
	}
	ratio, side := image.YCbCrSubsampleRatio444, 8
	if geo.Subsample420 {
		ratio, side = image.YCbCrSubsampleRatio420, 16
	}
	// Chroma is one block per MCU column and row at either subsampling.
	w, h, cw, ch := side*mw, side*mh, 8*mw, 8*mh
	img, ok := reuse.(*image.YCbCr)
	if !ok || img.SubsampleRatio != ratio || img.YStride != w || len(img.Y) != w*h ||
		img.CStride != cw || len(img.Cb) != cw*ch || len(img.Cr) != cw*ch {
		img = image.NewYCbCr(image.Rect(0, 0, w, h), ratio)
	}
	s.plane(0, img.Y, img.YStride)
	s.plane(1, img.Cb, img.CStride)
	s.plane(2, img.Cr, img.CStride)
	img.Rect = frame
	return img
}

// plane reconstructs component c's blocks into pix. With 4:2:0 the luma
// plane is wider and taller than the component's own block grid wherever the
// MCU grid pads it; that margin lies outside the frame and is cleared.
func (s *scratch) plane(c int, pix []byte, stride int) {
	q := multipliers(&s.geo.Quant[tableSlot(c)])
	bw, bh := s.geo.compBlocks(c)
	blocks, lastNZ := s.blocks[c], s.lastNZ[c]
	for by := 0; by < bh; by++ {
		row := pix[by*8*stride:]
		for bx := 0; bx < bw; bx++ {
			i := by*bw + bx
			reconstruct(&blocks[i], int(lastNZ[i]), &q, row[bx*8:], stride)
		}
	}
	if w := 8 * bw; w < stride {
		for y := 0; y < 8*bh; y++ {
			clear(pix[y*stride+w : (y+1)*stride])
		}
	}
	clear(pix[8*bh*stride:])
}

// Wang's fast inverse DCT in fixed point, with the constants and the
// rounding points of the MPEG-2 reference decoder's idct.c — the arithmetic
// image/jpeg uses, so the two decoders agree sample for sample:
// wN = 2048·√2·cos(Nπ/16), r2 = 256/√2.
const (
	w1 = 2841
	w2 = 2676
	w3 = 2408
	w5 = 1609
	w6 = 1108
	w7 = 565
	r2 = 181
)

// lastRow[n] is the lowest row of the 8×8 block that zigzag indices 0..n
// reach: with no coefficient past index n, the rows below it are zero.
var lastRow = func() (t [64]uint8) {
	for k, nat := range zigzag {
		t[k] = nat / 8
		if k > 0 {
			t[k] = max(t[k], t[k-1])
		}
	}
	return t
}()

// multipliers returns a quantization table, which is in natural order, as
// reconstruct's q: in zigzag order, as the blocks are, for its portable body,
// and for idctAVX2, which multiplies the columns it has gathered, in
// column-major order (8*x+y for row y of column x). The DC quantizer is
// first in both.
func multipliers(quant *[64]uint16) (q [64]int32) {
	for k, nat := range zigzag {
		if useAVX2 {
			k = int(nat%8*8 + nat/8)
		}
		q[k] = int32(quant[nat])
	}
	return q
}

// reconstruct dequantizes blk (zigzag order, no non-zero coefficient past
// index last) by q (see multipliers), inverse transforms it and writes the
// 8×8 samples, level shifted and clamped, to dst at the given row stride.
// last only bounds the work: the samples are those of the full transform
// (last = 63). The transform has two bodies with the same samples for every
// input: the one below, which is also what the other is tested against, and
// idctAVX2 where the processor has it.
func reconstruct(blk *block, last int, q *[64]int32, dst []byte, stride int) {
	if last == 0 {
		// A lone DC term passes through both 1-D transforms as a
		// constant: (dc<<3) after the rows, this after the columns.
		v := 0x0101010101010101 * uint64(sample((blk[0]*q[0]<<11+8192)>>14))
		for y := 0; y < 8; y++ {
			binary.LittleEndian.PutUint64(dst[y*stride:], v)
		}
		return
	}

	if useAVX2 {
		_ = dst[7*stride+7] // all the kernel writes: eight bytes in each of eight rows
		idctAVX2(blk, q, &dst[0], stride)
		return
	}

	var ws [64]int32 // natural order
	for k, v := range blk[:last+1] {
		ws[zigzag[k&63]&63] = v * q[k&63]
	}

	// Rows, each to 3 more fractional bits. A row that is zero past the
	// rows the coefficients reach transforms to zero: it is left alone.
	for y := 0; y <= int(lastRow[last&63]); y++ {
		s := (*[8]int32)(ws[y*8:])
		if s[1]|s[2]|s[3]|s[4]|s[5]|s[6]|s[7] == 0 {
			dc := s[0] << 3
			s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = dc, dc, dc, dc, dc, dc, dc, dc
			continue
		}
		x0 := s[0]<<11 + 128
		x1 := s[4] << 11
		x2, x3, x4, x5, x6, x7 := s[6], s[2], s[1], s[7], s[5], s[3]

		x8 := w7 * (x4 + x5)
		x4 = x8 + (w1-w7)*x4
		x5 = x8 - (w1+w7)*x5
		x8 = w3 * (x6 + x7)
		x6 = x8 - (w3-w5)*x6
		x7 = x8 - (w3+w5)*x7

		x8 = x0 + x1
		x0 -= x1
		x1 = w6 * (x3 + x2)
		x2 = x1 - (w2+w6)*x2
		x3 = x1 + (w2-w6)*x3
		x1 = x4 + x6
		x4 -= x6
		x6 = x5 + x7
		x5 -= x7

		x7 = x8 + x3
		x8 -= x3
		x3 = x0 + x2
		x0 -= x2
		x2 = (r2*(x4+x5) + 128) >> 8
		x4 = (r2*(x4-x5) + 128) >> 8

		s[0] = (x7 + x1) >> 8
		s[1] = (x3 + x2) >> 8
		s[2] = (x0 + x4) >> 8
		s[3] = (x8 + x6) >> 8
		s[4] = (x8 - x6) >> 8
		s[5] = (x0 - x4) >> 8
		s[6] = (x3 - x2) >> 8
		s[7] = (x7 - x1) >> 8
	}

	var out [8]*[8]byte
	for y := range out {
		out[y] = (*[8]byte)(dst[y*stride:])
	}

	// Columns, back to integers.
	for x := 0; x < 8; x++ {
		s := (*[57]int32)(ws[x:])
		y0 := s[8*0]<<8 + 8192
		y1 := s[8*4] << 8
		y2, y3, y4, y5, y6, y7 := s[8*6], s[8*2], s[8*1], s[8*7], s[8*5], s[8*3]

		y8 := w7*(y4+y5) + 4
		y4 = (y8 + (w1-w7)*y4) >> 3
		y5 = (y8 - (w1+w7)*y5) >> 3
		y8 = w3*(y6+y7) + 4
		y6 = (y8 - (w3-w5)*y6) >> 3
		y7 = (y8 - (w3+w5)*y7) >> 3

		y8 = y0 + y1
		y0 -= y1
		y1 = w6*(y3+y2) + 4
		y2 = (y1 - (w2+w6)*y2) >> 3
		y3 = (y1 + (w2-w6)*y3) >> 3
		y1 = y4 + y6
		y4 -= y6
		y6 = y5 + y7
		y5 -= y7

		y7 = y8 + y3
		y8 -= y3
		y3 = y0 + y2
		y0 -= y2
		y2 = (r2*(y4+y5) + 128) >> 8
		y4 = (r2*(y4-y5) + 128) >> 8

		out[0][x] = sample((y7 + y1) >> 14)
		out[1][x] = sample((y3 + y2) >> 14)
		out[2][x] = sample((y0 + y4) >> 14)
		out[3][x] = sample((y8 + y6) >> 14)
		out[4][x] = sample((y8 - y6) >> 14)
		out[5][x] = sample((y0 - y4) >> 14)
		out[6][x] = sample((y3 - y2) >> 14)
		out[7][x] = sample((y7 - y1) >> 14)
	}
}

// sample level-shifts an inverse DCT output by +128 and clamps it to a byte.
func sample(v int32) uint8 {
	v += 128
	if uint32(v) > 255 {
		return uint8(^(v >> 31)) // 0 below the range, 255 above
	}
	return uint8(v)
}
