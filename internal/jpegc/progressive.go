package jpegc

import "math/bits"

// maxCorrBits bounds the buffered AC-refinement correction bits attached to
// a pending EOB run (libjpeg's MAX_CORR_BITS safeguard).
const maxCorrBits = 937

// The encoder walks the coefficients of each scan once. The walk counts
// symbol frequencies, from which the scan's optimal Huffman tables are
// built, and records what it saw as a token per symbol; the tokens are then
// replayed through those tables into the bit writer. A token is
//
//	bit 31      raw: value bits only, no symbol (correction bits)
//	bits 29-30  table: AC<<1 | slot (luma 0, chroma 1), indexing scratch.enc
//	bits 21-28  the symbol
//	bits 16-20  n, the number of value bits that follow the symbol's code
//	bits 0-15   the value bits
const (
	tokRaw       = 1 << 31
	tokTableBit  = 29
	tokSymbolBit = 21
	tokNBit      = 16
)

// Table indices: class<<1 | slot.
const tableAC = 2

// tableSlot maps a component to its Huffman table slot: luma uses slot 0,
// chroma slot 1.
func tableSlot(comp int) int {
	if comp > 0 {
		return 1
	}
	return 0
}

// symbolToken counts sym for table t and returns the token that records it
// with its n value bits.
func (s *scratch) symbolToken(t int, sym byte, vbits uint32, n uint) uint32 {
	s.freq[t][sym]++
	return uint32(t)<<tokTableBit | uint32(sym)<<tokSymbolBit | uint32(n)<<tokNBit | vbits
}

// symbol counts and records sym, coded through table t, and its value bits.
func (s *scratch) symbol(t int, sym byte, vbits uint32, n uint) {
	s.toks = append(s.toks, s.symbolToken(t, sym, vbits, n))
}

// rawBits records the low n bits of v (n ≤ 64), 16 to a token.
func (s *scratch) rawBits(v uint64, n uint) {
	for n > 0 {
		take := min(n, 16)
		n -= take
		s.toks = append(s.toks, tokRaw|uint32(take)<<tokNBit|uint32(v>>n)&(1<<take-1))
	}
}

// emitTokens replays toks through the encoders enc, indexed by table, into
// w, and flushes w to a byte boundary. The bit accumulator stays in locals:
// each token, its code and value bits together, is one shift and OR into it.
func emitTokens(w *bitWriter, toks []uint32, enc *[4]huffEncoder) {
	acc, nbit := w.acc, w.nbit
	for _, tok := range toks {
		n := uint(tok >> tokNBit & 31)
		v := uint64(tok & 0xFFFF)
		if tok&tokRaw == 0 {
			code, size := enc[tok>>tokTableBit&3].lookup(byte(tok >> tokSymbolBit))
			v |= uint64(code) << n
			n += size
		}
		acc = acc<<n | v
		nbit += n
		if nbit >= 32 {
			nbit -= 32
			w.put4(uint32(acc >> nbit))
		}
	}
	w.acc, w.nbit = acc, nbit
	w.flush()
}

// scanTables appends to dst the indices of the tables scan codes through,
// in DHT order: one per slot its components use. A DC refinement scan is raw
// bits and has none.
func scanTables(dst []int, scan ScanSpec) []int {
	if scan.isDC() && scan.Ah != 0 {
		return dst
	}
	class := 0
	if !scan.isDC() {
		class = tableAC
	}
	var used [2]bool
	for _, c := range scan.Comps {
		used[tableSlot(c)] = true
	}
	for slot, u := range used {
		if u {
			dst = append(dst, class|slot)
		}
	}
	return dst
}

// walkScan records scan's tokens after those already in s.toks, counting
// its symbols into s.freq.
func (s *scratch) walkScan(scan ScanSpec) {
	switch {
	case scan.isDC() && scan.Ah == 0:
		s.walkDCFirst(scan)
	case scan.isDC():
		s.walkDCRefine(scan)
	case scan.Ah == 0:
		s.walkACFirst(scan)
	default:
		s.walkACRefine(scan)
	}
}

// writeScan emits the DHT (when Huffman tables are needed), SOS header, and
// entropy-coded data for one scan of the script.
func (s *scratch) writeScan(scan ScanSpec) error {
	tables := scanTables(make([]int, 0, 2), scan)
	for _, t := range tables {
		s.freq[t] = freqCounter{}
	}
	s.toks = s.toks[:0]
	s.walkScan(scan)
	if err := s.writeTables(tables, false); err != nil {
		return err
	}
	s.w.out = appendSOS(s.w.out, scan, scan.isDC() && scan.Ah == 0, !scan.isDC())
	emitTokens(&s.w, s.toks, &s.enc)
	return nil
}

// writeTables readies the encoder of each listed table index — from the
// optimal table for the frequencies counted, or the Annex K one when std is
// set — and emits the tables in one DHT segment, in the order listed.
func (s *scratch) writeTables(tables []int, std bool) error {
	var specs [4]*huffSpec
	for _, t := range tables {
		specs[t] = stdSpecs[t]
		if !std {
			specs[t] = &s.spec[t]
			s.freq[t].buildOptimal(specs[t])
		}
		if err := s.enc[t].build(specs[t]); err != nil {
			return err
		}
	}
	s.w.out = appendDHT(s.w.out, tables, &specs)
	return nil
}

// appendDHT appends one DHT segment holding the listed tables in order,
// specs being indexed by table index; nothing when the list is empty.
func appendDHT(out []byte, tables []int, specs *[4]*huffSpec) []byte {
	if len(tables) == 0 {
		return out
	}
	n := 0
	for _, t := range tables {
		n += 1 + 16 + len(specs[t].vals)
	}
	out = appendSegment(out, mDHT, n)
	for _, t := range tables {
		out = append(out, byte(t>>1)<<4|byte(t&1)) // class (0 = DC, 1 = AC), slot
		out = append(out, specs[t].bits[:]...)
		out = append(out, specs[t].vals...)
	}
	return out
}

// walkDCFirst codes the DC band's first pass: difference coding of
// point-transformed DC values in interleaved MCU order.
func (s *scratch) walkDCFirst(scan ScanSpec) {
	var prevDC [3]int32
	for _, b := range s.scanOrder(scan.Comps) {
		v := s.blocks[b.comp][b.idx][0] >> uint(scan.Al)
		size, vbits := magnitude(v - prevDC[b.comp])
		prevDC[b.comp] = v
		s.symbol(tableSlot(int(b.comp)), byte(size), vbits, size)
	}
}

// walkDCRefine codes a DC refinement pass: one raw bit per block.
func (s *scratch) walkDCRefine(scan ScanSpec) {
	for _, b := range s.scanOrder(scan.Comps) {
		s.rawBits(uint64(s.blocks[b.comp][b.idx][0]>>uint(scan.Al))&1, 1)
	}
}

// eobRun is a pending run of end-of-band blocks in an AC scan. Its symbol
// is only known when the run ends, but it precedes the correction bits the
// run's blocks carry, so a token is reserved for it where the run begins.
type eobRun struct {
	t    int // table index
	n    int // blocks in the run
	tok  int // index of the reserved token
	corr int // correction bits recorded since it
}

// extend adds the current block to the run.
func (e *eobRun) extend(s *scratch) {
	if e.n == 0 {
		e.tok = len(s.toks)
		s.toks = append(s.toks, 0)
	}
	e.n++
}

// flush closes the run, if one is pending, with its EOBn symbol.
func (e *eobRun) flush(s *scratch) {
	if e.n == 0 {
		return
	}
	r := uint(bits.Len32(uint32(e.n))) - 1
	s.toks[e.tok] = s.symbolToken(e.t, byte(r<<4), uint32(e.n)&(1<<r-1), r)
	e.n, e.corr = 0, 0
}

// bandMask returns the bits of zigzag indices ss..se (1 ≤ ss ≤ se ≤ 63).
func bandMask(ss, se int) uint64 {
	return ^uint64(0) >> (63 - uint(se)&63) &^ (1<<uint(ss&63) - 1)
}

// walkACFirst codes the first pass of an AC band: run-length coding of
// point-transformed coefficients with EOB-run aggregation across blocks.
// The coefficients it codes are the set bits of each block's bitmap for Al
// within the band; the zeros between two of them are the difference of
// their positions.
func (s *scratch) walkACFirst(scan ScanSpec) {
	c := scan.Comps[0]
	t := tableAC | tableSlot(c)
	eob := eobRun{t: t}
	blocks, sig := s.blocks[c], s.sig[c]
	band, al := bandMask(scan.Ss, scan.Se), uint(scan.Al)
	for i := range blocks {
		blk := &blocks[i]
		prev := scan.Ss - 1
		for m := sig[i][al] & band; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			r := k - prev - 1
			prev = k
			eob.flush(s)
			for ; r > 15; r -= 16 {
				s.symbol(t, 0xF0, 0, 0) // ZRL
			}
			v := blk[k]
			neg := v >> 31
			a := ((v ^ neg) - neg) >> al
			size, vbits := magnitude((a ^ neg) - neg)
			s.symbol(t, byte(r<<4)|byte(size), vbits, size)
		}
		if prev < scan.Se {
			eob.extend(s)
			if eob.n == 0x7FFF {
				eob.flush(s)
			}
		}
	}
	eob.flush(s)
}

// walkACRefine codes an AC refinement pass, following the structure of
// libjpeg's encode_mcu_AC_refine: newly significant coefficients get
// run/size symbols, already-significant ones contribute buffered correction
// bits, and trailing zeros fold into a cross-block EOB run. A coefficient
// is significant at Al when its bit of the Al bitmap is set, and newly so
// when its bit of the Al+1 bitmap is not.
func (s *scratch) walkACRefine(scan ScanSpec) {
	c := scan.Comps[0]
	t := tableAC | tableSlot(c)
	eob := eobRun{t: t}
	blocks, sig := s.blocks[c], s.sig[c]
	band, al := bandMask(scan.Ss, scan.Se), uint(scan.Al)
	for i := range blocks {
		blk := &blocks[i]
		m := sig[i][al] & band
		fresh := m &^ sig[i][al+1]
		// The last newly significant coefficient is the EOB position: zero
		// runs past it are not coded as ZRLs. (-1 when there is none.)
		lastNew := 63 - bits.LeadingZeros64(fresh)
		// r counts the zero-history coefficients since the last newly
		// significant one; cur holds the correction bits collected since
		// the last symbol — at most one per coefficient of the band, so
		// they fit a word.
		r, prev := 0, scan.Ss-1
		var cur uint64
		var ncur uint
		for ; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			r += k - prev - 1
			prev = k
			for r > 15 && k <= lastNew {
				eob.flush(s)
				s.symbol(t, 0xF0, 0, 0)
				r -= 16
				s.rawBits(cur, ncur)
				cur, ncur = 0, 0
			}
			v := blk[k]
			if fresh>>k&1 == 0 {
				// Already significant: queue its correction bit.
				neg := v >> 31
				cur = cur<<1 | uint64(((v^neg)-neg)>>al&1)
				ncur++
				continue
			}
			// Newly significant coefficient: its sign follows the symbol.
			eob.flush(s)
			s.symbol(t, byte(r<<4)|1, uint32(v>>31)+1, 1)
			s.rawBits(cur, ncur)
			cur, ncur = 0, 0
			r = 0
		}
		if r > 0 || prev < scan.Se || ncur > 0 {
			eob.extend(s)
			s.rawBits(cur, ncur)
			eob.corr += int(ncur)
			if eob.n == 0x7FFF || eob.corr > maxCorrBits {
				eob.flush(s)
			}
		}
	}
	eob.flush(s)
}
