package jpegc

import (
	"fmt"
	"math/bits"
)

// huffSpec is a Huffman table in the DHT wire representation: bits[l] is the
// number of codes of length l+1 (l in 0..15) and vals lists the symbols in
// code order.
type huffSpec struct {
	bits [16]byte
	vals []byte
}

// huffEncoder holds one code word per symbol, derived from a huffSpec:
// code<<5 | length, or 0 for a symbol that has no code.
type huffEncoder [256]uint32

// build assigns canonical codes (T.81 Annex C) to the spec's symbols.
func (e *huffEncoder) build(spec *huffSpec) error {
	*e = huffEncoder{}
	code := uint32(0)
	k := 0
	for l := 1; l <= 16; l++ {
		n := int(spec.bits[l-1])
		for i := 0; i < n; i++ {
			if k >= len(spec.vals) {
				return fmt.Errorf("jpegc: huffman spec has %d codes but %d symbols", k+1, len(spec.vals))
			}
			sym := spec.vals[k]
			if e[sym] != 0 {
				return fmt.Errorf("jpegc: duplicate huffman symbol %#x", sym)
			}
			e[sym] = code<<5 | uint32(l)
			code++
			k++
		}
		code <<= 1
	}
	if k != len(spec.vals) {
		return fmt.Errorf("jpegc: huffman spec has %d codes but %d symbols", k, len(spec.vals))
	}
	return nil
}

// lookup returns sym's code and its length in bits. Panics if the symbol
// has no code — the encoder only emits symbols whose frequencies it
// counted, so a missing code is an internal invariant violation, not an
// input error.
func (e *huffEncoder) lookup(sym byte) (code uint32, n uint) {
	ent := e[sym]
	if ent == 0 {
		panicNoCode(sym)
	}
	return ent >> 5, uint(ent & 31)
}

// panicNoCode is lookup's panic, out of line so that lookup inlines.
func panicNoCode(sym byte) {
	panic(fmt.Sprintf("jpegc: no huffman code for symbol %#x", sym))
}

// lutBits is how many bits of look-ahead the decoder resolves with one
// table load. Photographic tables put nearly every symbol of a stream
// within it.
const lutBits = 8

// huffDecoder decodes one table's codes: those of at most lutBits bits by
// look-up, the rest by the canonical MINCODE/MAXCODE/VALPTR procedure of
// T.81 Annex F.2.2.3 (the shape of image/jpeg's decoder).
type huffDecoder struct {
	// lut is indexed by the next lutBits bits of the stream, or 0 when
	// those bits begin a longer code. Otherwise an entry holds the symbol
	// in bits 0–7 and its code length in bits 8–11; and when the value bits
	// that the symbol's size nibble announces follow within the same
	// lutBits, the code and value bits together in bits 12–15 and the
	// sign-extended value in bits 16–31.
	lut     [1 << lutBits]int32
	maxcode [17]int32 // by code length; -1 where no codes of that length exist
	// valoff[l] is the index into vals of length l's first code, minus
	// that code.
	valoff [17]int32
	vals   []byte
}

// build derives the decoding tables from a DHT segment's counts and its
// symbols, one per counted code. vals is kept, not copied. A table whose
// counts over-subscribe the code space is not refused here: its look-up
// entries stay in range, and a code that resolves outside vals is refused
// when a scan meets it.
func (d *huffDecoder) build(counts *[16]byte, vals []byte) {
	d.lut = [1 << lutBits]int32{}
	d.vals = vals
	code := int32(0)
	k := int32(0)
	for l := 1; l <= 16; l++ {
		n := int32(counts[l-1])
		d.maxcode[l] = code + n - 1
		d.valoff[l] = k - code
		if n == 0 {
			d.maxcode[l] = -1
		}
		if rest := lutBits - l; rest >= 0 {
			for j := int32(0); j < n; j++ {
				// The entries whose bits begin with this code, in runs that
				// share value bits when those fit too.
				span := d.lut[uint8((code+j)<<rest):][:1<<rest]
				sym := vals[k+j]
				ent, size := int32(l)<<8|int32(sym), uint(sym&0x0F)
				if size <= uint(rest) {
					ent |= int32(l+int(size)) << 12
				} else {
					size = 0 // no value in the entry
				}
				same := len(span) >> size
				for x := 0; x < len(span); x += same {
					e := ent | extend(uint32(x/same), size)<<16
					for y := range span[x : x+same] {
						span[x+y] = e
					}
				}
			}
		}
		code = (code + n) << 1
		k += n
	}
}

// decode reads one Huffman-coded symbol from r, and leaves r holding at
// least 16 bits more (see bitReader.take).
func (d *huffDecoder) decode(r *bitReader) (byte, error) {
	if r.nbit < 32 {
		r.fill()
	}
	if ent := d.lut[r.acc>>(64-lutBits)]; ent != 0 {
		n := uint(ent>>8) & 0x0F
		r.acc <<= n
		r.nbit -= int(n)
		return byte(ent), nil
	}
	next16 := int32(r.acc >> 48)
	for l := lutBits + 1; l <= 16; l++ {
		code := next16 >> (16 - l)
		if code <= d.maxcode[l] {
			idx := d.valoff[l] + code
			if idx < 0 || int(idx) >= len(d.vals) {
				return 0, fmt.Errorf("jpegc: corrupt huffman code")
			}
			r.acc <<= uint(l)
			r.nbit -= l
			return d.vals[idx], nil
		}
	}
	return 0, fmt.Errorf("jpegc: huffman code longer than 16 bits")
}

// decodeValue reads one run/size symbol and the size value bits that follow
// it, sign-extended: with one table load when the two fit the look-up width
// together.
func (d *huffDecoder) decodeValue(r *bitReader) (rs byte, v int32, err error) {
	if r.nbit < 32 {
		r.fill()
	}
	if ent := d.lut[r.acc>>(64-lutBits)]; ent&0xF000 != 0 {
		n := uint(ent>>12) & 0x0F
		r.acc <<= n
		r.nbit -= int(n)
		return byte(ent), ent >> 16, nil
	}
	if rs, err = d.decode(r); err != nil {
		return 0, 0, err
	}
	size := uint(rs & 0x0F)
	return rs, extend(r.take(size), size), nil
}

// fused is decodeValue's one-load case for a scan loop that holds the
// accumulator in locals and has topped it up to 32 bits (bitReader.refill).
// When the code at the head of acc and the value bits its size nibble
// announces fit the look-up width together, it returns the symbol, the
// value, the accumulator past both, and ok; otherwise acc and nbit come back
// unchanged, ok is false, and the loop takes slowValue.
func (d *huffDecoder) fused(acc uint64, nbit int) (rs byte, v int32, _ uint64, _ int, ok bool) {
	ent := d.lut[acc>>(64-lutBits)]
	n := uint(ent>>12) & 0x0F // 0 unless fused
	return byte(ent), ent >> 16, acc << n, nbit - int(n), n != 0
}

// slowValue is decodeValue for a scan loop that holds the accumulator in
// locals, for what fused does not resolve: a code longer than the look-up
// width, or value bits that do not fit beside their code. It writes acc and
// nbit back, decodes, and returns them as decodeValue leaves them.
func (d *huffDecoder) slowValue(r *bitReader, acc uint64, nbit int) (rs byte, v int32, _ uint64, _ int, err error) {
	r.acc, r.nbit = acc, nbit
	rs, v, err = d.decodeValue(r)
	return rs, v, r.acc, r.nbit, err
}

// freqCounter accumulates symbol frequencies for optimal table generation.
// Index 256 is a reserved pseudo-symbol that guarantees no real symbol is
// assigned the all-ones code (required by JPEG).
type freqCounter [257]int64

// buildOptimal computes an optimal length-limited Huffman table for the
// counted frequencies into spec, following the algorithm of ISO/libjpeg
// (jpeg_gen_optimal_table): pair-merge to get code sizes, then push sizes
// over 16 back down, then drop the reserved symbol. Only the symbols that
// occurred are visited; their increasing order is kept so that every tie
// breaks as it does in libjpeg's scan of all 257 entries.
func (f *freqCounter) buildOptimal(spec *huffSpec) {
	var freq [257]int64
	var syms, live [257]int16 // symbols counted, and those not yet merged away
	n := 0
	for i, c := range f[:256] {
		if c != 0 {
			freq[i] = c
			syms[n] = int16(i)
			n++
		}
	}
	freq[256] = 1 // reserved: ensures no real all-ones code
	syms[n] = 256
	n++
	counted := syms[:n]
	copy(live[:], counted)

	var codesize, others [257]int16
	for i := range others {
		others[i] = -1
	}
	for ; n > 1; n-- {
		// Find the two least-frequent entries (c1 lowest, c2 next; ties
		// broken toward larger symbol value per libjpeg).
		p1 := 0
		for p := 1; p < n; p++ {
			if freq[live[p]] <= freq[live[p1]] {
				p1 = p
			}
		}
		p2 := -1
		for p := 0; p < n; p++ {
			if p != p1 && (p2 < 0 || freq[live[p]] <= freq[live[p2]]) {
				p2 = p
			}
		}
		c1, c2 := live[p1], live[p2]
		copy(live[p2:], live[p2+1:n])
		freq[c1] += freq[c2]
		codesize[c1]++
		for others[c1] >= 0 {
			c1 = others[c1]
			codesize[c1]++
		}
		others[c1] = c2
		codesize[c2]++
		for others[c2] >= 0 {
			c2 = others[c2]
			codesize[c2]++
		}
	}

	// count[l] is the number of codes of length l, the reserved symbol's
	// included. Symbols are listed in increasing code-length order, ties by
	// value — a counting sort on the lengths as they are before limiting,
	// start[l] being where the next symbol of length l goes.
	var count [33]int
	var start [34]int
	for _, sym := range counted {
		if codesize[sym] == 0 {
			continue // the reserved symbol, when nothing else was counted
		}
		// Over 32 cannot occur with ≤257 symbols, but guard anyway.
		codesize[sym] = min(codesize[sym], 32)
		count[codesize[sym]]++
		if sym != 256 {
			start[codesize[sym]+1]++
		}
	}
	for l := 1; l <= 32; l++ {
		start[l+1] += start[l]
	}
	if cap(spec.vals) < 256 {
		spec.vals = make([]byte, 0, 256)
	}
	spec.vals = spec.vals[:len(counted)-1]
	for _, sym := range counted[:len(counted)-1] {
		spec.vals[start[codesize[sym]]] = byte(sym)
		start[codesize[sym]]++
	}

	// Limit code lengths to 16 bits (T.81 K.3 adjustment).
	for l := 32; l > 16; l-- {
		for count[l] > 0 {
			j := l - 2
			for count[j] == 0 {
				j--
			}
			count[l] -= 2
			count[l-1]++
			count[j+1] += 2
			count[j]--
		}
	}
	// Remove the reserved symbol's code from the longest used length.
	l := 16
	for l > 0 && count[l] == 0 {
		l--
	}
	if l > 0 {
		count[l]--
	}
	for i := 1; i <= 16; i++ {
		spec.bits[i-1] = byte(count[i])
	}
}

// Standard Huffman tables from T.81 Annex K.3 (used for baseline scans when
// optimization is disabled).
var (
	stdDCLuma = huffSpec{
		bits: [16]byte{0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0},
		vals: []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	}
	stdDCChroma = huffSpec{
		bits: [16]byte{0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0},
		vals: []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	}
	stdACLuma = huffSpec{
		bits: [16]byte{0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7d},
		vals: []byte{
			0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
			0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
			0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xa1, 0x08,
			0x23, 0x42, 0xb1, 0xc1, 0x15, 0x52, 0xd1, 0xf0,
			0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0a, 0x16,
			0x17, 0x18, 0x19, 0x1a, 0x25, 0x26, 0x27, 0x28,
			0x29, 0x2a, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
			0x3a, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
			0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
			0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
			0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
			0x7a, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
			0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
			0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7,
			0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6,
			0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5,
			0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xd2, 0xd3, 0xd4,
			0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe1, 0xe2,
			0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea,
			0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8,
			0xf9, 0xfa,
		},
	}
	stdACChroma = huffSpec{
		bits: [16]byte{0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77},
		vals: []byte{
			0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
			0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
			0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
			0xa1, 0xb1, 0xc1, 0x09, 0x23, 0x33, 0x52, 0xf0,
			0x15, 0x62, 0x72, 0xd1, 0x0a, 0x16, 0x24, 0x34,
			0xe1, 0x25, 0xf1, 0x17, 0x18, 0x19, 0x1a, 0x26,
			0x27, 0x28, 0x29, 0x2a, 0x35, 0x36, 0x37, 0x38,
			0x39, 0x3a, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
			0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
			0x59, 0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
			0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
			0x79, 0x7a, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
			0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96,
			0x97, 0x98, 0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5,
			0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4,
			0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3,
			0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xd2,
			0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda,
			0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9,
			0xea, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8,
			0xf9, 0xfa,
		},
	}
)

// magnitude returns the JPEG "size" category of v (number of bits needed for
// |v|) and the value bits to emit after the size symbol: v itself, or for a
// negative value v-1 in size bits (the ones' complement of the magnitude).
func magnitude(v int32) (size uint, vbits uint32) {
	neg := v >> 31 // -1 for a negative v, else 0
	size = uint(bits.Len32(uint32((v ^ neg) - neg)))
	return size, uint32(v+neg) & (1<<size - 1)
}

// extend implements the EXTEND procedure (T.81 F.2.2.1): it converts the raw
// value bits of a size-s coefficient into a signed value — vbits itself when
// its top bit is set, vbits - 2^s + 1 when not. Signs are coin flips, so it
// is written without a branch.
func extend(vbits uint32, size uint) int32 {
	v := int32(vbits)
	topClear := v>>((size-1)&31) - 1 // all ones or zero; all ones for size 0, where it adds 0
	return v + topClear&(1-1<<(size&31))
}
