package jpegc

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	"image/jpeg"
)

// decoder holds the marker-level state of one decode. The entropy-level
// state — Huffman tables and the coefficients decoded so far — is in s,
// which frameSize, walking markers only, leaves nil.
type decoder struct {
	data []byte
	pos  int
	s    *scratch

	progressive  bool
	width        int
	height       int
	ncomp        int
	subsample420 bool
	compID       [3]byte
	compQuant    [3]byte

	quant [4][64]uint16 // by table id, natural order
	// dcTab and acTab point into s at the tables this stream has defined;
	// ntables counts its definitions so far.
	dcTab   [4]*huffDecoder
	acTab   [4]*huffDecoder
	ntables int
	sawSOF  bool
}

// decode parses a JPEG stream (baseline or progressive) into the working
// blocks, not yet sealed. Progressive streams whose later scans are absent —
// e.g. a PCR scan-group prefix terminated with EOI — decode successfully;
// missing refinements simply leave coefficients at their coarser values. A
// stream that ends without EOI, or a scan that needs more bits than its
// entropy-coded data holds, returns ErrTruncated.
func (s *scratch) decode(data []byte) error {
	d := decoder{data: data, s: s}
	if err := d.run(); err != nil {
		return err
	}
	s.geo.Quant[0] = d.quant[d.compQuant[0]]
	if d.ncomp == 3 {
		s.geo.Quant[1] = d.quant[d.compQuant[1]]
		if d.quant[d.compQuant[2]] != s.geo.Quant[1] {
			return fmt.Errorf("%w: Cb and Cr quantized by different tables", ErrUnsupported)
		}
	}
	return nil
}

// Decode reconstructs the pixels of a JPEG stream (baseline or progressive):
// its coefficients, decoded into the pooled scratch, dequantized and inverse
// transformed straight out of it into one new image. Color
// streams come back as *image.YCbCr at the stream's native subsampling,
// grayscale as *image.Gray, with planes that cover whole MCUs as image/jpeg
// sizes them. A scan-group prefix terminated with EOI decodes to its coarser
// image; a stream without EOI is an error. A well-formed stream outside this
// package's subset (ErrUnsupported) is handed to image/jpeg, which a
// TFRecord or file-per-image dataset, storing its inputs verbatim, can hold.
func Decode(data []byte) (image.Image, error) {
	return DecodeInto(data, nil)
}

// DecodeInto is Decode into reuse, a frame an earlier decode returned and
// its caller is done with, when the stream's image has the same geometry —
// type, subsampling and MCU grid; otherwise, and for a stream handed to
// image/jpeg, into a new image. Every sample of the frame is written, so the
// result is the same whichever it is. The decoder's scratch comes from a
// pool: one goroutine decoding a run of streams that share Huffman table
// definitions and geometry, as a PCR record's samples do, builds their
// tables and scan order once.
func DecodeInto(data []byte, reuse image.Image) (image.Image, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	err := s.decode(data)
	if errors.Is(err, ErrUnsupported) {
		return decodeForeign(data)
	}
	if err != nil {
		return nil, err
	}
	return s.pixels(reuse), nil
}

// decodeForeign decodes with image/jpeg, which sizes its buffers from the
// frame header before it has read any entropy-coded data: the header's claim
// is checked first.
func decodeForeign(data []byte) (image.Image, error) {
	if w, h, ok := frameSize(data); ok {
		if err := checkDims(w, h); err != nil {
			return nil, err
		}
	}
	return jpeg.Decode(bytes.NewReader(data))
}

// frameSize walks the markers up to the first frame header and returns the
// size it declares. (jpeg.DecodeConfig would do, at 13 KB of decoder state
// allocated per call.) A stream with no frame header before its first scan
// is left for image/jpeg to refuse.
func frameSize(data []byte) (w, h int, ok bool) {
	d := decoder{data: data, pos: 2}
	for {
		marker, p, err := d.nextSegment()
		switch {
		case err != nil || marker == mSOS || marker == mEOI:
			return 0, 0, false
		case marker >= mSOF0 && marker <= mSOF2 && len(p) >= 5:
			return int(p[3])<<8 | int(p[4]), int(p[1])<<8 | int(p[2]), true
		}
	}
}

// maxPixels bounds the frame size a decode will allocate for. A SOF header
// can declare 65535×65535 in a dozen bytes, and both this decoder and
// image/jpeg size their buffers from that declaration before they have read
// any entropy-coded data; 2^26 pixels is above any camera frame.
const maxPixels = 1 << 26

func checkDims(w, h int) error {
	if w <= 0 || h <= 0 || int64(w)*int64(h) > maxPixels {
		return fmt.Errorf("jpegc: unsupported frame size %dx%d", w, h)
	}
	return nil
}

func (d *decoder) run() error {
	if len(d.data) < 2 || d.data[0] != 0xFF || d.data[1] != mSOI {
		return fmt.Errorf("jpegc: missing SOI")
	}
	d.pos = 2
	for {
		marker, payload, err := d.nextSegment()
		if err != nil {
			return err
		}
		switch {
		case marker == mEOI:
			if !d.sawSOF {
				return fmt.Errorf("jpegc: EOI before SOF")
			}
			return nil
		case marker == mSOF0 || marker == mSOF2:
			d.progressive = marker == mSOF2
			if err := d.parseSOF(payload); err != nil {
				return err
			}
		case marker == mDQT:
			if err := d.parseDQT(payload); err != nil {
				return err
			}
		case marker == mDHT:
			if err := d.parseDHT(payload); err != nil {
				return err
			}
		case marker == mSOS:
			if err := d.parseScan(payload); err != nil {
				return err
			}
		case marker == mDRI:
			if len(payload) == 2 && (payload[0] != 0 || payload[1] != 0) {
				return fmt.Errorf("%w: restart intervals", ErrUnsupported)
			}
		case marker >= mAPP0 && marker <= 0xEF, marker == mCOM:
			// Skip application and comment segments.
		case marker >= 0xC1 && marker <= 0xCF && marker != mDHT:
			return fmt.Errorf("%w: SOF marker %#x", ErrUnsupported, marker)
		default:
			return fmt.Errorf("jpegc: unexpected marker %#x", marker)
		}
	}
}

// nextSegment finds the next marker and, for segments with a length field,
// returns its payload. Returns an io-style error at end of input.
func (d *decoder) nextSegment() (marker byte, payload []byte, err error) {
	// Skip to the next 0xFF that starts a marker.
	for {
		if d.pos >= len(d.data) {
			return 0, nil, ErrTruncated
		}
		if d.data[d.pos] != 0xFF {
			d.pos++
			continue
		}
		// Consume fill bytes.
		for d.pos+1 < len(d.data) && d.data[d.pos+1] == 0xFF {
			d.pos++
		}
		if d.pos+1 >= len(d.data) {
			return 0, nil, ErrTruncated
		}
		m := d.data[d.pos+1]
		if m == 0x00 {
			// Stuffed data byte outside a scan: skip.
			d.pos += 2
			continue
		}
		d.pos += 2
		marker = m
		break
	}
	if marker == mEOI || marker == mSOI || (marker >= mRST0 && marker <= mRST0+7) {
		return marker, nil, nil
	}
	if d.pos+2 > len(d.data) {
		return 0, nil, ErrTruncated
	}
	n := int(d.data[d.pos])<<8 | int(d.data[d.pos+1])
	if n < 2 || d.pos+n > len(d.data) {
		return 0, nil, ErrTruncated
	}
	payload = d.data[d.pos+2 : d.pos+n]
	d.pos += n
	return marker, payload, nil
}

func (d *decoder) parseSOF(p []byte) error {
	if d.sawSOF {
		return fmt.Errorf("jpegc: multiple SOF markers")
	}
	if len(p) < 6 {
		return fmt.Errorf("jpegc: short SOF")
	}
	if p[0] != 8 {
		return fmt.Errorf("%w: %d-bit precision", ErrUnsupported, p[0])
	}
	d.height = int(p[1])<<8 | int(p[2])
	d.width = int(p[3])<<8 | int(p[4])
	d.ncomp = int(p[5])
	if err := checkDims(d.width, d.height); err != nil {
		return err
	}
	if d.ncomp != 1 && d.ncomp != 3 {
		return fmt.Errorf("%w: %d components", ErrUnsupported, d.ncomp)
	}
	if len(p) < 6+3*d.ncomp {
		return fmt.Errorf("jpegc: short SOF")
	}
	var sampling [3]byte
	for c := 0; c < d.ncomp; c++ {
		d.compID[c] = p[6+3*c]
		sampling[c] = p[7+3*c]
		d.compQuant[c] = p[8+3*c]
		if d.compQuant[c] > 3 {
			return fmt.Errorf("jpegc: bad quant table id")
		}
	}
	switch {
	case d.ncomp == 1 && sampling[0] == 0x11:
		// grayscale
	case d.ncomp == 3 && sampling[0] == 0x11 && sampling[1] == 0x11 && sampling[2] == 0x11:
		// 4:4:4
	case d.ncomp == 3 && sampling[0] == 0x22 && sampling[1] == 0x11 && sampling[2] == 0x11:
		d.subsample420 = true
	default:
		// (A copy, so that sampling itself stays on the stack.)
		return fmt.Errorf("%w: sampling %v (only 4:4:4 and 4:2:0)", ErrUnsupported, bytes.Clone(sampling[:d.ncomp]))
	}
	d.sawSOF = true
	d.s.setGeometry(&coeffImage{Width: d.width, Height: d.height, NumComps: d.ncomp, Subsample420: d.subsample420})
	return nil
}

func (d *decoder) parseDQT(p []byte) error {
	for len(p) > 0 {
		pq := p[0] >> 4
		tq := p[0] & 0x0F
		if pq != 0 {
			return fmt.Errorf("%w: 16-bit quantization tables", ErrUnsupported)
		}
		if tq > 3 {
			return fmt.Errorf("jpegc: bad quant table id %d", tq)
		}
		if len(p) < 65 {
			return fmt.Errorf("jpegc: short DQT")
		}
		for zz := 0; zz < 64; zz++ {
			d.quant[tq][zigzag[zz]] = uint16(p[1+zz])
		}
		p = p[65:]
	}
	return nil
}

func (d *decoder) parseDHT(p []byte) error {
	for len(p) > 0 {
		if len(p) < 17 {
			return fmt.Errorf("jpegc: short DHT")
		}
		class := p[0] >> 4
		id := p[0] & 0x0F
		if class > 1 || id > 3 {
			return fmt.Errorf("jpegc: bad huffman table spec %#x", p[0])
		}
		counts := (*[16]byte)(p[1:17])
		total := 0
		for _, n := range counts {
			total += int(n)
		}
		if len(p) < 17+total {
			return fmt.Errorf("jpegc: short DHT values")
		}
		// A definition byte for byte the one this scratch last saw at its
		// position in a stream has its table built already.
		var tab *huffDecoder
		if d.ntables < memoTables {
			m := &d.s.tables[d.ntables]
			if def := p[:17+total]; !bytes.Equal(m.spec, def) {
				m.spec = append(m.spec[:0], def...)
				m.tab.build((*[16]byte)(m.spec[1:17]), m.spec[17:])
			}
			tab = &m.tab
		} else {
			tab = &d.s.dcTab[id]
			if class == 1 {
				tab = &d.s.acTab[id]
			}
			tab.build(counts, p[17:17+total])
		}
		d.ntables++
		if class == 0 {
			d.dcTab[id] = tab
		} else {
			d.acTab[id] = tab
		}
		p = p[17+total:]
	}
	return nil
}

// scanComp is one component's entry in a scan header.
type scanComp struct {
	comp   int // component index (0-based)
	dc, ac *huffDecoder
}

func (d *decoder) parseScan(header []byte) error {
	if !d.sawSOF {
		return fmt.Errorf("jpegc: SOS before SOF")
	}
	if len(header) < 4 {
		return fmt.Errorf("jpegc: short SOS")
	}
	ns := int(header[0])
	if ns < 1 || ns > 3 || len(header) != 1+2*ns+3 {
		return fmt.Errorf("jpegc: bad SOS header")
	}
	comps := make([]scanComp, ns, 3)
	idxs := make([]int, ns, 3)
	for i := 0; i < ns; i++ {
		id := header[1+2*i]
		found := -1
		for c := 0; c < d.ncomp; c++ {
			if d.compID[c] == id {
				found = c
			}
		}
		if found < 0 {
			return fmt.Errorf("jpegc: scan references unknown component %d", id)
		}
		dc, ac := header[2+2*i]>>4, header[2+2*i]&0x0F
		if dc > 3 || ac > 3 {
			return fmt.Errorf("jpegc: huffman table id out of range in SOS")
		}
		comps[i] = scanComp{comp: found, dc: d.dcTab[dc], ac: d.acTab[ac]}
		idxs[i] = found
	}
	ss := int(header[1+2*ns])
	se := int(header[2+2*ns])
	ah := int(header[3+2*ns] >> 4)
	al := int(header[3+2*ns] & 0x0F)
	if !d.progressive {
		if ss != 0 || se != 63 || ah != 0 || al != 0 {
			return fmt.Errorf("jpegc: bad baseline scan parameters")
		}
	} else {
		if ss > se || se > 63 || (ss == 0 && se != 0) {
			return fmt.Errorf("jpegc: bad progressive spectral band %d..%d", ss, se)
		}
		if ss != 0 && ns != 1 {
			return fmt.Errorf("jpegc: progressive AC scan must be non-interleaved")
		}
	}

	// A first DC pass (baseline scans include one) reads through DC
	// tables, anything with AC coefficients through AC tables; DC
	// refinement is raw bits.
	for _, sc := range comps {
		if (ss == 0 && ah == 0 && sc.dc == nil) || (se != 0 && sc.ac == nil) {
			return fmt.Errorf("jpegc: scan uses undefined huffman table")
		}
	}

	end := scanEnd(d.data, d.pos)
	r := &bitReader{data: d.data[d.pos:end]}
	d.pos = end

	var err error
	if ss == 0 {
		d.s.scanOrder(idxs) // into d.s.order, which the loops below walk
		// comps, indexed by component rather than by position in the scan.
		var byComp [3]scanComp
		for _, sc := range comps {
			byComp[sc.comp] = sc
		}
		switch {
		case !d.progressive:
			err = d.decodeBaselineScan(r, &byComp)
		case ah == 0:
			err = d.decodeDCFirst(r, &byComp, al)
		default:
			d.decodeDCRefine(r, al)
		}
	} else if ah == 0 {
		err = d.decodeACFirst(r, comps[0], ss, se, al)
	} else {
		err = d.decodeACRefine(r, comps[0], ss, se, al)
	}
	if err == nil && r.overrun() {
		// Every block of the scan decoded, but only by reading zeros past
		// the end of its data: the data was cut short.
		err = ErrTruncated
	}
	return err
}

// maxDCCategory is the largest DC difference category a scan may carry: the
// bit reader hands out at most 16 bits at a time. (8-bit precision needs no
// more than 11.)
const maxDCCategory = 16

// The scan loops below hold the reader's accumulator and its count in
// locals, acc and nbit, for the whole scan. Each symbol is the same few
// lines: a refill when fewer than 32 bits are left, then the fused look-up,
// and only where that misses slowValue. They write the pair back to r only
// around those out-of-line calls and when they return (bitReader.settle).

// wideDC finishes a DC difference whose category s, 16 or more, a scan loop
// has read as a symbol. The table reads a category as a size nibble, right
// up to 15; category 16's nibble is 0, so its 16 value bits follow, and the
// accumulator holds them, as every symbol leaves 16. A larger category is
// refused.
func wideDC(s byte, acc uint64, nbit int) (int32, uint64, int, error) {
	if s > maxDCCategory {
		return 0, acc, nbit, fmt.Errorf("jpegc: DC difference category %d out of range", s)
	}
	return extend(uint32(acc>>48), 16), acc << 16, nbit - 16, nil
}

// decodeBaselineScan decodes the blocks of d.s.order, each whole. comps is
// indexed by component.
func (d *decoder) decodeBaselineScan(r *bitReader, comps *[3]scanComp) error {
	var dcPred [3]int32
	var padding block
	var padLast uint8
	acc, nbit := r.acc, r.nbit
	var (
		rs      byte
		v, diff int32
		ok      bool
		err     error
	)
	for _, b := range d.s.order {
		blk, lastNZ := &d.s.blocks[b.comp][b.idx], &d.s.lastNZ[b.comp][b.idx]
		if b.pad {
			blk, lastNZ = &padding, &padLast // decode MCU padding, then discard
		}
		sc := &comps[b.comp]
		if nbit < 32 {
			acc, nbit = r.refill(acc, nbit)
		}
		if rs, diff, acc, nbit, ok = sc.dc.fused(acc, nbit); !ok {
			if rs, diff, acc, nbit, err = sc.dc.slowValue(r, acc, nbit); err != nil {
				return r.settle(acc, nbit, err)
			}
		}
		if rs >= 16 {
			if diff, acc, nbit, err = wideDC(rs, acc, nbit); err != nil {
				return r.settle(acc, nbit, err)
			}
		}
		dcPred[b.comp] += diff
		blk[0] = dcPred[b.comp]
		last := 0 // the highest index written: the indices only rise
		for k := 1; k < 64; {
			if nbit < 32 {
				acc, nbit = r.refill(acc, nbit)
			}
			if rs, v, acc, nbit, ok = sc.ac.fused(acc, nbit); !ok {
				if rs, v, acc, nbit, err = sc.ac.slowValue(r, acc, nbit); err != nil {
					return r.settle(acc, nbit, err)
				}
			}
			run := int(rs >> 4)
			if rs&0x0F == 0 {
				if run == 15 {
					k += 16 // ZRL
					continue
				}
				break // EOB
			}
			k += run
			if k > 63 {
				return r.settle(acc, nbit, fmt.Errorf("jpegc: AC coefficient index out of range"))
			}
			blk[k&63] = v
			last = k
			k++
		}
		*lastNZ = max(*lastNZ, uint8(last))
	}
	return r.settle(acc, nbit, nil)
}

func (d *decoder) decodeDCFirst(r *bitReader, comps *[3]scanComp, al int) error {
	var dcPred [3]int32
	acc, nbit := r.acc, r.nbit
	var (
		s    byte
		diff int32
		ok   bool
		err  error
	)
	for _, b := range d.s.order {
		dc := comps[b.comp].dc
		if nbit < 32 {
			acc, nbit = r.refill(acc, nbit)
		}
		if s, diff, acc, nbit, ok = dc.fused(acc, nbit); !ok {
			if s, diff, acc, nbit, err = dc.slowValue(r, acc, nbit); err != nil {
				return r.settle(acc, nbit, err)
			}
		}
		if s >= 16 {
			if diff, acc, nbit, err = wideDC(s, acc, nbit); err != nil {
				return r.settle(acc, nbit, err)
			}
		}
		dcPred[b.comp] += diff
		if !b.pad {
			d.s.blocks[b.comp][b.idx][0] = dcPred[b.comp] << uint(al)
		}
	}
	return r.settle(acc, nbit, nil)
}

func (d *decoder) decodeDCRefine(r *bitReader, al int) {
	bit := int32(1) << uint(al)
	for _, b := range d.s.order {
		if r.readBits(1) != 0 && !b.pad {
			d.s.blocks[b.comp][b.idx][0] |= bit
		}
	}
}

// takeEOBRun reads the length of the run of end-of-bands an EOBn symbol
// (run < 15, size 0) opens, the current block included, from the
// accumulator as the scan loops hold it: its run bits are there already, as
// every symbol leaves at least 16.
func takeEOBRun(acc uint64, nbit, run int) (int, uint64, int) {
	n := uint(run)
	return 1<<n + int(acc>>(64-n)), acc << n, nbit - run
}

func (d *decoder) decodeACFirst(r *bitReader, sc scanComp, ss, se, al int) error {
	eobrun := 0
	blocks, lastNZ := d.s.blocks[sc.comp], d.s.lastNZ[sc.comp]
	acc, nbit := r.acc, r.nbit
	var (
		rs  byte
		v   int32
		ok  bool
		err error
	)
	for i := range blocks {
		if eobrun > 0 {
			eobrun--
			continue
		}
		blk := &blocks[i]
		last := 0 // the highest index written: the indices only rise
		for k := ss; k <= se; {
			if nbit < 32 {
				acc, nbit = r.refill(acc, nbit)
			}
			if rs, v, acc, nbit, ok = sc.ac.fused(acc, nbit); !ok {
				if rs, v, acc, nbit, err = sc.ac.slowValue(r, acc, nbit); err != nil {
					return r.settle(acc, nbit, err)
				}
			}
			run := int(rs >> 4)
			if rs&0x0F == 0 {
				if run != 15 {
					eobrun, acc, nbit = takeEOBRun(acc, nbit, run)
					eobrun-- // this block is the first of the run
					break
				}
				k += 16 // ZRL
				continue
			}
			k += run
			if k > se {
				return r.settle(acc, nbit, fmt.Errorf("jpegc: AC coefficient index out of band"))
			}
			blk[k&63] = v << uint(al)
			last = k
			k++
		}
		lastNZ[i] = max(lastNZ[i], uint8(last))
	}
	return r.settle(acc, nbit, nil)
}

func (d *decoder) decodeACRefine(r *bitReader, sc scanComp, ss, se, al int) error {
	p1 := int32(1) << uint(al)
	eobrun := 0
	blocks, lastNZ := d.s.blocks[sc.comp], d.s.lastNZ[sc.comp]
	acc, nbit := r.acc, r.nbit
	var (
		rs  byte
		v   int32
		ok  bool
		err error
	)
	for i := range blocks {
		blk := &blocks[i]
		// Only a coefficient already non-zero has a correction bit, and
		// none is past last: from there on the band is a run of zeros.
		last := min(se, int(lastNZ[i]))
		k := ss
		if eobrun == 0 {
			for ; k <= se; k++ {
				// A new coefficient's value is its sign bit: ±1.
				if nbit < 32 {
					acc, nbit = r.refill(acc, nbit)
				}
				if rs, v, acc, nbit, ok = sc.ac.fused(acc, nbit); !ok {
					if rs, v, acc, nbit, err = sc.ac.slowValue(r, acc, nbit); err != nil {
						return r.settle(acc, nbit, err)
					}
				}
				run, size := int(rs>>4), int(rs&0x0F)
				if size > 1 {
					return r.settle(acc, nbit, fmt.Errorf("jpegc: bad refinement size %d", size))
				}
				if size == 0 && run != 15 {
					eobrun, acc, nbit = takeEOBRun(acc, nbit, run)
					break // remaining coefficients handled by EOB logic below
				}
				// Advance to the (run+1)-th zero-history coefficient,
				// correcting the nonzero-history ones passed. For a
				// run/size symbol that zero receives the newly significant
				// value; for ZRL (run=15, size=0) it is the 16th skipped
				// zero, and the loop's k++ steps past it.
				r.acc, r.nbit = acc, nbit
				k, run = r.refine(blk, k, last, run, p1)
				acc, nbit = r.acc, r.nbit
				k += run
				if k > se {
					return r.settle(acc, nbit, fmt.Errorf("jpegc: AC coefficient index out of band"))
				}
				if size != 0 {
					blk[k&63] = v << uint(al)
					lastNZ[i] = max(lastNZ[i], uint8(k))
				}
			}
		}
		if eobrun > 0 {
			// In an EOB run: every remaining nonzero coefficient of the
			// band is corrected, and no zero ends the walk.
			r.acc, r.nbit = acc, nbit
			r.refine(blk, k, last, 64, p1)
			acc, nbit = r.acc, r.nbit
			eobrun--
		}
	}
	return r.settle(acc, nbit, nil)
}

// refine walks blk[k..last] for an AC refinement scan at bit p1: it reads a
// correction bit for each non-zero coefficient it passes and stops at the
// (run+1)-th zero one. It returns where it stopped and how many zeros were
// still to pass — 0 unless it reached last+1. Whether a coefficient is zero,
// its sign and its correction bit are coin flips, so none of them is a
// branch: each is a mask.
func (r *bitReader) refine(blk *block, k, last, run int, p1 int32) (int, int) {
	acc, nbit := r.acc, r.nbit
	for ; k <= last; k++ {
		c := blk[k]
		nz := (c | -c) >> 31 // all ones for a non-zero coefficient
		if int(nz)|run == 0 {
			break
		}
		if nbit+int(nz) < 0 { // a bit is wanted and none is left
			acc, nbit = r.refill(acc, nbit)
		}
		run += int(^nz) // one fewer zero to pass, at a zero
		bit := int32(int64(acc)>>63) & nz
		fresh := (c&p1 - 1) >> 31 // bit p1 not yet set
		sign := c >> 31
		blk[k] = c + ((p1^sign)-sign)&bit&fresh // p1 away from zero
		acc += acc & uint64(int64(nz))          // acc <<= nz&1, without a variable shift
		nbit += int(nz)
	}
	r.acc, r.nbit = acc, nbit
	return k, run
}
