package jpegc

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"math/bits"
)

// Options control encoding.
type Options struct {
	// Quality is the JPEG quality setting in [1, 100]; 0 means 75.
	Quality int
	// Progressive selects progressive (SOF2) encoding with libjpeg's
	// default scan script. False produces a baseline (SOF0) stream.
	Progressive bool
	// Subsample420 encodes color images with 4:2:0 chroma subsampling
	// (the convention of virtually all photographic JPEG). Ignored for
	// grayscale.
	Subsample420 bool
	// OptimizeHuffman computes optimal Huffman tables for baseline scans.
	// Progressive scans always use optimized tables (the Annex K defaults
	// lack the EOBn symbols progressive coding requires).
	OptimizeHuffman bool
}

func (o *Options) quality() int {
	if o == nil || o.Quality == 0 {
		return 75
	}
	return o.Quality
}

// Encode compresses img with the given options and returns the JPEG stream.
// An *image.Gray is coded as one component, any other image as YCbCr.
func Encode(img image.Image, opts *Options) ([]byte, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	if err := s.analyze(img, opts); err != nil {
		return nil, err
	}
	if err := s.seal(); err != nil {
		return nil, err
	}
	return s.encode(opts)
}

// analyze converts img into the working blocks: its quantized DCT
// coefficients at the requested quality. This is the lossy step; all
// entropy-coding paths (baseline, progressive) below it are lossless.
func (s *scratch) analyze(img image.Image, opts *Options) error {
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	if w <= 0 || h <= 0 {
		return fmt.Errorf("jpegc: empty image")
	}
	_, gray := img.(*image.Gray)
	geo := coeffImage{Width: w, Height: h, NumComps: 3, Subsample420: opts != nil && opts.Subsample420}
	if gray {
		geo.NumComps, geo.Subsample420 = 1, false
	}
	geo.Quant[0], geo.Quant[1] = quantTables(opts.quality())
	s.setGeometry(&geo)

	// Extract full-resolution component planes.
	full := make([][]uint8, geo.NumComps)
	for c := range full {
		full[c] = make([]uint8, w*h)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r, g, bb, _ := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
			r8, g8, b8 := uint8(r>>8), uint8(g>>8), uint8(bb>>8)
			if gray {
				full[0][y*w+x] = r8 // an *image.Gray's r, g and b are its Y
			} else {
				yy, cb, cr := color.RGBToYCbCr(r8, g8, b8)
				full[0][y*w+x] = yy
				full[1][y*w+x] = cb
				full[2][y*w+x] = cr
			}
		}
	}

	for c := 0; c < geo.NumComps; c++ {
		quant := &geo.Quant[tableSlot(c)]
		// Component plane at its sampled resolution, edge-replicated to
		// block boundaries. Chroma under 4:2:0 is a 2×2 box average.
		cw, ch := geo.compSize(c)
		bw, bh := geo.compBlocks(c)
		pw, ph := bw*8, bh*8
		plane := make([]uint8, pw*ph)
		sub := geo.Subsample420 && c > 0
		for y := 0; y < ph; y++ {
			sy := min(y, ch-1)
			for x := 0; x < pw; x++ {
				sx := min(x, cw-1)
				if !sub {
					plane[y*pw+x] = full[c][sy*w+sx]
					continue
				}
				x0, y0 := 2*sx, 2*sy
				x1, y1 := min(x0+1, w-1), min(y0+1, h-1)
				sum := int(full[c][y0*w+x0]) + int(full[c][y0*w+x1]) +
					int(full[c][y1*w+x0]) + int(full[c][y1*w+x1])
				plane[y*pw+x] = uint8((sum + 2) / 4)
			}
		}

		var fb [64]float64
		for by := 0; by < bh; by++ {
			for bx := 0; bx < bw; bx++ {
				for y := 0; y < 8; y++ {
					for x := 0; x < 8; x++ {
						fb[y*8+x] = float64(plane[(by*8+y)*pw+bx*8+x]) - 128
					}
				}
				fdct(&fb)
				blk := &s.blocks[c][by*bw+bx]
				last := 0
				for k, nat := range zigzag {
					v := fb[nat] / float64(quant[nat])
					// Round to nearest, ties away from zero.
					if v >= 0 {
						blk[k] = int32(v + 0.5)
					} else {
						blk[k] = int32(v - 0.5)
					}
					if blk[k] != 0 {
						last = k
					}
				}
				s.lastNZ[c][by*bw+bx] = uint8(last)
			}
		}
	}
	return nil
}

// encode entropy-codes the sealed working blocks. The stream is assembled
// in the scratch's buffer; the caller gets a copy of exactly its length.
func (s *scratch) encode(opts *Options) ([]byte, error) {
	progressive := opts != nil && opts.Progressive
	s.w = bitWriter{out: appendHeaders(s.w.out[:0], &s.geo, progressive)}
	if progressive {
		for _, scan := range defaultScanScript(s.geo.NumComps) {
			if err := s.writeScan(scan); err != nil {
				return nil, err
			}
		}
	} else if err := s.writeBaselineScan(opts != nil && opts.OptimizeHuffman); err != nil {
		return nil, err
	}
	s.w.out = append(s.w.out, 0xFF, mEOI)
	return bytes.Clone(s.w.out), nil
}

// appendSegment appends a marker segment's marker and length; the caller
// appends the n payload bytes.
func appendSegment(out []byte, marker byte, n int) []byte {
	return append(out, 0xFF, marker, byte((n+2)>>8), byte(n+2))
}

func appendHeaders(out []byte, ci *coeffImage, progressive bool) []byte {
	out = append(out, 0xFF, mSOI)

	// JFIF APP0.
	out = appendSegment(out, mAPP0, 14)
	out = append(out, 'J', 'F', 'I', 'F', 0, 1, 2, 0, 0, 1, 0, 1, 0, 0)

	// DQT: table 0 (luma), and table 1 (chroma) for color.
	nq := 1
	if ci.NumComps == 3 {
		nq = 2
	}
	for t := 0; t < nq; t++ {
		out = appendSegment(out, mDQT, 1+64)
		out = append(out, byte(t)) // 8-bit precision, table id t
		for _, nat := range zigzag {
			out = append(out, byte(ci.Quant[t][nat]))
		}
	}

	// SOF0 or SOF2.
	sof := byte(mSOF0)
	if progressive {
		sof = mSOF2
	}
	out = appendSegment(out, sof, 6+3*ci.NumComps)
	out = append(out, 8, // precision
		byte(ci.Height>>8), byte(ci.Height), byte(ci.Width>>8), byte(ci.Width), byte(ci.NumComps))
	ids := [3]byte{compY, compCb, compCr}
	for c := 0; c < ci.NumComps; c++ {
		h, v := ci.sampling(c)
		qt := byte(0)
		if c > 0 {
			qt = 1
		}
		out = append(out, ids[c], byte(h)<<4|byte(v), qt)
	}
	return out
}

// appendSOS emits the scan header for the given scan spec. dc and ac say
// whether the scan codes through DC and AC tables: where it does, each
// component names its slot; where it does not, the field is zero.
func appendSOS(out []byte, scan ScanSpec, dc, ac bool) []byte {
	ids := [3]byte{compY, compCb, compCr}
	out = appendSegment(out, mSOS, 1+2*len(scan.Comps)+3)
	out = append(out, byte(len(scan.Comps)))
	for _, c := range scan.Comps {
		var tables byte
		if dc {
			tables = byte(tableSlot(c)) << 4
		}
		if ac {
			tables |= byte(tableSlot(c))
		}
		out = append(out, ids[c], tables)
	}
	return append(out, byte(scan.Ss), byte(scan.Se), byte(scan.Ah<<4|scan.Al))
}

// --- Baseline scan ---------------------------------------------------------

// stdSpecs are the Annex K tables by table index (class<<1 | slot).
var stdSpecs = [4]*huffSpec{&stdDCLuma, &stdDCChroma, &stdACLuma, &stdACChroma}

// walkBaseline records the one scan of a baseline stream: every block of
// every component, whole, in interleaved MCU order. MCU padding blocks
// (4:2:0 edges) re-emit the clamped edge block, keeping the DC prediction
// chain consistent with the decoder. The AC terms coded are the set bits of
// each block's Al = 0 bitmap.
func (s *scratch) walkBaseline(comps []int) {
	var prevDC [3]int32
	for _, b := range s.scanOrder(comps) {
		blk := &s.blocks[b.comp][b.idx]
		slot := tableSlot(int(b.comp))
		size, vbits := magnitude(blk[0] - prevDC[b.comp])
		prevDC[b.comp] = blk[0]
		s.symbol(slot, byte(size), vbits, size)
		// AC with run-length coding
		prev := 0
		for m := s.sig[b.comp][b.idx][0]; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			run := k - prev - 1
			prev = k
			for ; run > 15; run -= 16 {
				s.symbol(tableAC|slot, 0xF0, 0, 0) // ZRL
			}
			size, vbits := magnitude(blk[k])
			s.symbol(tableAC|slot, byte(run<<4)|byte(size), vbits, size)
		}
		if prev < 63 {
			s.symbol(tableAC|slot, 0x00, 0, 0) // EOB
		}
	}
}

func (s *scratch) writeBaselineScan(optimize bool) error {
	comps := []int{0, 1, 2}[:s.geo.NumComps]
	tables := []int{0, tableAC, 1, tableAC | 1} // DC then AC, luma then chroma
	if s.geo.NumComps == 1 {
		tables = tables[:2]
	}
	for _, t := range tables {
		s.freq[t] = freqCounter{}
	}
	s.toks = s.toks[:0]
	s.walkBaseline(comps)
	if err := s.writeTables(tables, !optimize); err != nil {
		return err
	}
	s.w.out = appendSOS(s.w.out, ScanSpec{Comps: comps, Ss: 0, Se: 63}, true, true)
	emitTokens(&s.w, s.toks, &s.enc)
	return nil
}
