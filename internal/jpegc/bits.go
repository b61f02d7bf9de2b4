package jpegc

import (
	"bytes"
	"encoding/binary"
)

// bitWriter emits an MSB-first bit stream with JPEG byte stuffing: every
// 0xFF data byte is followed by a 0x00 stuff byte so decoders can
// distinguish entropy-coded data from markers. Bits collect in a 64-bit
// accumulator and leave four bytes at a time, appended to out.
type bitWriter struct {
	out  []byte
	acc  uint64 // pending bits are the low nbit bits
	nbit uint   // always < 32 between calls
}

// writeBits appends the low n bits of v, most significant first. n may be 0
// and is at most 32; v must have no bits set above its low n.
func (w *bitWriter) writeBits(v uint32, n uint) {
	w.acc = w.acc<<n | uint64(v)
	w.nbit += n
	if w.nbit >= 32 {
		w.nbit -= 32
		w.put4(uint32(w.acc >> w.nbit))
	}
}

// put4 appends four data bytes, stuffing any that are 0xFF.
func (w *bitWriter) put4(x uint32) {
	// A byte of x is 0xFF exactly where the byte of ^x is zero.
	if (^x-0x01010101)&x&0x80808080 == 0 {
		w.out = binary.BigEndian.AppendUint32(w.out, x)
		return
	}
	for shift := 24; shift >= 0; shift -= 8 {
		w.putByte(byte(x >> shift))
	}
}

func (w *bitWriter) putByte(b byte) {
	w.out = append(w.out, b)
	if b == 0xFF {
		w.out = append(w.out, 0x00)
	}
}

// flush pads the final partial byte with 1 bits (the JPEG convention) and
// emits what is pending.
func (w *bitWriter) flush() {
	if rem := w.nbit % 8; rem != 0 {
		pad := 8 - rem
		w.acc = w.acc<<pad | (1<<pad - 1)
		w.nbit += pad
	}
	for w.nbit > 0 {
		w.nbit -= 8
		w.putByte(byte(w.acc >> w.nbit))
	}
}

// scanEnd returns the offset at which the entropy-coded segment starting at
// data[pos] ends: the position of the first 0xFF that begins a marker (0xFF
// followed by anything but a 0x00 stuff byte or another 0xFF fill byte), of
// a lone 0xFF that is the stream's last byte, or len(data). It copies
// nothing.
func scanEnd(data []byte, pos int) int {
	for {
		i := bytes.IndexByte(data[pos:], 0xFF)
		if i < 0 {
			return len(data)
		}
		pos += i
		if pos+1 >= len(data) {
			return pos
		}
		switch data[pos+1] {
		case 0x00:
			pos += 2 // stuffed data byte
		case 0xFF:
			pos++ // fill byte: re-examine the next 0xFF
		default:
			return pos
		}
	}
}

// bitReader consumes an MSB-first bit stream from one entropy-coded segment,
// data[pos:end] with end found by scanEnd, removing the stuff bytes as it
// fills its accumulator. Past the end of the segment it feeds zero bits and
// counts them: filling ahead is not an error, but a scan that consumed any
// of them asked for more bits than its payload holds, which overrun reports
// and the decoder checks once a scan has been decoded.
type bitReader struct {
	data  []byte // the segment, stuff bytes included
	pos   int
	acc   uint64 // the next bits, left-aligned
	nbit  int    // valid bits in acc, the fed zeros included
	zeros int    // zero bits fed past the end of the segment
}

// fill tops the accumulator up to at least 57 bits.
func (r *bitReader) fill() {
	for r.nbit <= 56 {
		var b byte
		switch {
		case r.pos >= len(r.data):
			r.zeros += 8
		case r.data[r.pos] != 0xFF:
			b = r.data[r.pos]
			r.pos++
		case r.pos+1 < len(r.data) && r.data[r.pos+1] == 0x00:
			b = 0xFF
			r.pos += 2
		default:
			// A fill byte (0xFF before another 0xFF, or closing the
			// segment) carries no data.
			r.pos++
			continue
		}
		r.acc |= uint64(b) << (56 - r.nbit)
		r.nbit += 8
	}
}

// refill is fill for a scan loop that holds the accumulator and its count in
// locals, acc and nbit, so that they stay in registers from symbol to
// symbol: it writes them back, fills, and returns them topped up. The loops
// meet r's fields only here, in huffDecoder.slowValue and on their way out
// (settle).
func (r *bitReader) refill(acc uint64, nbit int) (uint64, int) {
	r.acc, r.nbit = acc, nbit
	r.fill()
	return r.acc, r.nbit
}

// settle writes a scan loop's accumulator back as the loop returns err.
func (r *bitReader) settle(acc uint64, nbit int, err error) error {
	r.acc, r.nbit = acc, nbit
	return err
}

// readBits returns the next n bits MSB-first. n must be ≤ 16.
func (r *bitReader) readBits(n uint) uint32 {
	if r.nbit < 16 {
		r.fill()
	}
	return r.take(n)
}

// take is readBits for a caller that knows the accumulator holds 16 bits or
// more: huffDecoder.decode leaves it so, for the value bits that follow a
// symbol.
func (r *bitReader) take(n uint) uint32 {
	v := uint32(r.acc >> (64 - n))
	r.acc <<= n
	r.nbit -= int(n)
	return v
}

// overrun reports whether bits beyond the segment's payload were consumed.
func (r *bitReader) overrun() bool { return r.nbit < r.zeros }
