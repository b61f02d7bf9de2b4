package jpegc

import (
	"bytes"
	"fmt"
	"image"
	"image/jpeg"
)

// decoder holds the marker-level and entropy-level state of one decode.
type decoder struct {
	data []byte
	pos  int

	progressive  bool
	width        int
	height       int
	ncomp        int
	subsample420 bool
	compID       [3]byte
	compQuant    [3]byte

	quant [4][64]uint16 // by table id, natural order
	dcTab [4]*huffDecoder
	acTab [4]*huffDecoder

	blocks [3][]Block
	sawSOF bool
}

// geometry is a CoeffImage shell: the decode loops use it for the
// component-grid and MCU iteration helpers, DecodeCoeffs fills it in.
func (d *decoder) geometry() *CoeffImage {
	return &CoeffImage{
		Width:        d.width,
		Height:       d.height,
		NumComps:     d.ncomp,
		Subsample420: d.subsample420,
	}
}

// DecodeCoeffs parses a JPEG stream (baseline or progressive) down to its
// quantized DCT coefficients. Progressive streams whose later scans are
// absent — e.g. a PCR scan-group prefix terminated with EOI — decode
// successfully; missing refinements simply leave coefficients at their
// coarser values. A stream that ends without EOI returns ErrTruncated.
func DecodeCoeffs(data []byte) (*CoeffImage, error) {
	d := &decoder{data: data}
	if err := d.run(); err != nil {
		return nil, err
	}
	ci := d.geometry()
	ci.Quant[0] = d.quant[d.compQuant[0]]
	if d.ncomp == 3 {
		ci.Quant[1] = d.quant[d.compQuant[1]]
	}
	for c := 0; c < d.ncomp; c++ {
		ci.Blocks[c] = d.blocks[c]
	}
	return ci, nil
}

// Decode reconstructs the pixels of a JPEG stream with the standard
// library's decoder — the repository's only pixel path. Color streams come
// back as *image.YCbCr at the stream's native subsampling, grayscale as
// *image.Gray. A scan-group prefix terminated with EOI decodes to its
// coarser image; a stream without EOI is an error.
func Decode(data []byte) (image.Image, error) {
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
// can declare 65535×65535 in a dozen bytes, and both DecodeCoeffs and
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
				return fmt.Errorf("jpegc: restart intervals unsupported")
			}
		case marker >= mAPP0 && marker <= 0xEF, marker == mCOM:
			// Skip application and comment segments.
		case marker >= 0xC1 && marker <= 0xCF && marker != mDHT:
			return fmt.Errorf("jpegc: unsupported SOF marker %#x", marker)
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
		return fmt.Errorf("jpegc: only 8-bit precision supported")
	}
	d.height = int(p[1])<<8 | int(p[2])
	d.width = int(p[3])<<8 | int(p[4])
	d.ncomp = int(p[5])
	if err := checkDims(d.width, d.height); err != nil {
		return err
	}
	if d.ncomp != 1 && d.ncomp != 3 {
		return fmt.Errorf("jpegc: unsupported component count %d", d.ncomp)
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
		return fmt.Errorf("jpegc: unsupported sampling %v (only 4:4:4 and 4:2:0)", sampling[:d.ncomp])
	}
	d.sawSOF = true
	geo := d.geometry()
	for c := 0; c < d.ncomp; c++ {
		d.blocks[c] = make([]Block, geo.CompBlocksWide(c)*geo.CompBlocksHigh(c))
	}
	return nil
}

func (d *decoder) parseDQT(p []byte) error {
	for len(p) > 0 {
		pq := p[0] >> 4
		tq := p[0] & 0x0F
		if pq != 0 {
			return fmt.Errorf("jpegc: 16-bit quant tables unsupported")
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
		var spec huffSpec
		total := 0
		for i := 0; i < 16; i++ {
			spec.bits[i] = p[1+i]
			total += int(p[1+i])
		}
		if len(p) < 17+total {
			return fmt.Errorf("jpegc: short DHT values")
		}
		spec.vals = append([]byte(nil), p[17:17+total]...)
		dec, err := buildDecoder(&spec)
		if err != nil {
			return err
		}
		if class == 0 {
			d.dcTab[id] = dec
		} else {
			d.acTab[id] = dec
		}
		p = p[17+total:]
	}
	return nil
}

// scanComp is one component's entry in a scan header.
type scanComp struct {
	comp   int // component index (0-based)
	dc, ac byte
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
	comps := make([]scanComp, ns)
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
		comps[i] = scanComp{comp: found, dc: header[2+2*i] >> 4, ac: header[2+2*i] & 0x0F}
		if comps[i].dc > 3 || comps[i].ac > 3 {
			return fmt.Errorf("jpegc: huffman table id out of range in SOS")
		}
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

	payload, consumed := destuff(d.data[d.pos:])
	d.pos += consumed
	r := newBitReader(payload)

	var err error
	switch {
	case !d.progressive:
		err = d.decodeBaselineScan(r, comps)
	case ss == 0 && ah == 0:
		err = d.decodeDCFirst(r, comps, al)
	case ss == 0:
		err = d.decodeDCRefine(r, comps, al)
	case ah == 0:
		err = d.decodeACFirst(r, comps[0], ss, se, al)
	default:
		err = d.decodeACRefine(r, comps[0], ss, se, al)
	}
	return err
}

// scanCompIndices extracts the component-index list and a lookup from
// component index to scanComp for an MCU walk.
func scanCompIndices(comps []scanComp) ([]int, map[int]scanComp) {
	idxs := make([]int, len(comps))
	byComp := make(map[int]scanComp, len(comps))
	for i, sc := range comps {
		idxs[i] = sc.comp
		byComp[sc.comp] = sc
	}
	return idxs, byComp
}

func (d *decoder) decodeBaselineScan(r *bitReader, comps []scanComp) error {
	idxs, byComp := scanCompIndices(comps)
	var dcPred [3]int32
	var scratch Block
	var firstErr error
	d.geometry().forEachMCUBlock(idxs, func(c, idx int, pad bool) {
		if firstErr != nil {
			return
		}
		sc := byComp[c]
		blk := &d.blocks[c][idx]
		if pad {
			scratch = Block{}
			blk = &scratch // decode MCU padding, then discard
		}
		dcDec := d.dcTab[sc.dc]
		acDec := d.acTab[sc.ac]
		if dcDec == nil || acDec == nil {
			firstErr = fmt.Errorf("jpegc: scan uses undefined huffman table")
			return
		}
		s, err := dcDec.decode(r)
		if err != nil {
			firstErr = err
			return
		}
		diff := extend(r.readBits(uint(s)), uint(s))
		dcPred[c] += diff
		blk[0] = dcPred[c]
		for k := 1; k < 64; {
			rs, err := acDec.decode(r)
			if err != nil {
				firstErr = err
				return
			}
			run, size := int(rs>>4), uint(rs&0x0F)
			if size == 0 {
				if run == 15 {
					k += 16 // ZRL
					continue
				}
				break // EOB
			}
			k += run
			if k > 63 {
				firstErr = fmt.Errorf("jpegc: AC coefficient index out of range")
				return
			}
			blk[zigzag[k]] = extend(r.readBits(size), size)
			k++
		}
	})
	return firstErr
}

func (d *decoder) decodeDCFirst(r *bitReader, comps []scanComp, al int) error {
	idxs, byComp := scanCompIndices(comps)
	var dcPred [3]int32
	var firstErr error
	d.geometry().forEachMCUBlock(idxs, func(c, idx int, pad bool) {
		if firstErr != nil {
			return
		}
		dec := d.dcTab[byComp[c].dc]
		if dec == nil {
			firstErr = fmt.Errorf("jpegc: scan uses undefined DC table")
			return
		}
		s, err := dec.decode(r)
		if err != nil {
			firstErr = err
			return
		}
		diff := extend(r.readBits(uint(s)), uint(s))
		dcPred[c] += diff
		if !pad {
			d.blocks[c][idx][0] = dcPred[c] << uint(al)
		}
	})
	return firstErr
}

func (d *decoder) decodeDCRefine(r *bitReader, comps []scanComp, al int) error {
	idxs, _ := scanCompIndices(comps)
	bit := int32(1) << uint(al)
	d.geometry().forEachMCUBlock(idxs, func(c, idx int, pad bool) {
		if r.readBit() != 0 && !pad {
			d.blocks[c][idx][0] |= bit
		}
	})
	return nil
}

func (d *decoder) decodeACFirst(r *bitReader, sc scanComp, ss, se, al int) error {
	dec := d.acTab[sc.ac]
	if dec == nil {
		return fmt.Errorf("jpegc: scan uses undefined AC table")
	}
	eobrun := 0
	for i := range d.blocks[sc.comp] {
		blk := &d.blocks[sc.comp][i]
		if eobrun > 0 {
			eobrun--
			continue
		}
		for k := ss; k <= se; {
			rs, err := dec.decode(r)
			if err != nil {
				return err
			}
			run, size := int(rs>>4), uint(rs&0x0F)
			if size == 0 {
				if run != 15 {
					// EOBn: run of end-of-bands.
					eobrun = 1 << uint(run)
					if run > 0 {
						eobrun += int(r.readBits(uint(run)))
					}
					eobrun-- // this block is the first of the run
					break
				}
				k += 16 // ZRL
				continue
			}
			k += run
			if k > se {
				return fmt.Errorf("jpegc: AC coefficient index out of band")
			}
			blk[zigzag[k]] = extend(r.readBits(size), size) << uint(al)
			k++
		}
	}
	return nil
}

func (d *decoder) decodeACRefine(r *bitReader, sc scanComp, ss, se, al int) error {
	dec := d.acTab[sc.ac]
	if dec == nil {
		return fmt.Errorf("jpegc: scan uses undefined AC table")
	}
	p1 := int32(1) << uint(al)
	m1 := int32(-1) << uint(al)
	eobrun := 0

	// refine applies a pending correction bit to an already-nonzero
	// coefficient.
	refine := func(coef *int32) {
		if r.readBit() != 0 && *coef&p1 == 0 {
			if *coef >= 0 {
				*coef += p1
			} else {
				*coef += m1
			}
		}
	}

	for i := range d.blocks[sc.comp] {
		blk := &d.blocks[sc.comp][i]
		k := ss
		if eobrun == 0 {
			for ; k <= se; k++ {
				rs, err := dec.decode(r)
				if err != nil {
					return err
				}
				run, size := int(rs>>4), int(rs&0x0F)
				var newVal int32
				if size != 0 {
					if size != 1 {
						return fmt.Errorf("jpegc: bad refinement size %d", size)
					}
					if r.readBit() != 0 {
						newVal = p1
					} else {
						newVal = m1
					}
				} else if run != 15 {
					eobrun = 1 << uint(run)
					if run > 0 {
						eobrun += int(r.readBits(uint(run)))
					}
					break // remaining coefficients handled by EOB logic below
				}
				// Advance over `run` zero-history coefficients, applying
				// correction bits to nonzero-history ones encountered. The
				// loop stops at the (run+1)-th zero: for a run/size symbol
				// that zero receives the newly significant value; for ZRL
				// (run=15, size=0) it is the 16th skipped zero, and the
				// outer loop's k++ steps past it.
				for k <= se {
					coef := &blk[zigzag[k]]
					if *coef != 0 {
						refine(coef)
					} else {
						run--
						if run < 0 {
							break
						}
					}
					k++
				}
				if size != 0 && k <= se {
					blk[zigzag[k]] = newVal
				}
			}
		}
		if eobrun > 0 {
			// In an EOB run: apply correction bits to every remaining
			// nonzero coefficient of the band.
			for ; k <= se; k++ {
				coef := &blk[zigzag[k]]
				if *coef != 0 {
					refine(coef)
				}
			}
			eobrun--
		}
	}
	return nil
}
