// Package wire implements the subset of the protobuf wire format the PCR
// system uses for metadata serialization (§3.2): varints, zigzag-encoded
// signed integers, and length-delimited fields. The paper notes that
// "serialization libraries, such as Protobuf, handle both the packing and
// unpacking steps transparently" — this package is that library, used by
// the record metadata sections, the record index (one encoding: the
// kvstore's dataset and record entries, which the served /index document
// carries inline), and the TFRecord baseline's frames.
package wire

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Wire types (protobuf-compatible numbering).
const (
	TypeVarint = 0
	TypeI64    = 1
	TypeBytes  = 2
	TypeI32    = 5
)

// ErrShort reports truncated input.
var ErrShort = errors.New("wire: truncated input")

// Encoder appends wire-format fields to a buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder, optionally reusing buf's storage.
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf[:0]} }

// Encode returns the encoded message.
func (e *Encoder) Encode() []byte { return e.buf }

// Reset clears the encoder for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

func (e *Encoder) tag(field, wtype int) {
	e.varint(uint64(field)<<3 | uint64(wtype))
}

func (e *Encoder) varint(v uint64) {
	for v >= 0x80 {
		e.buf = append(e.buf, byte(v)|0x80)
		v >>= 7
	}
	e.buf = append(e.buf, byte(v))
}

// Uint64 appends an unsigned varint field.
func (e *Encoder) Uint64(field int, v uint64) {
	e.tag(field, TypeVarint)
	e.varint(v)
}

// Int64 appends a zigzag-encoded signed varint field (sint64).
func (e *Encoder) Int64(field int, v int64) {
	e.Uint64(field, uint64(v)<<1^uint64(v>>63))
}

// Bool appends a boolean varint field.
func (e *Encoder) Bool(field int, v bool) {
	if v {
		e.Uint64(field, 1)
	} else {
		e.Uint64(field, 0)
	}
}

// Float64 appends a fixed64 floating-point field.
func (e *Encoder) Float64(field int, v float64) {
	e.tag(field, TypeI64)
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		e.buf = append(e.buf, byte(bits>>(8*i)))
	}
}

// Bytes appends a length-delimited field.
func (e *Encoder) Bytes(field int, v []byte) {
	e.tag(field, TypeBytes)
	e.varint(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// String appends a length-delimited string field.
func (e *Encoder) String(field int, v string) {
	e.tag(field, TypeBytes)
	e.varint(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// Packed appends a packed repeated varint field, sized before it is
// written. A signed value is spelled as its 64-bit two's complement
// (protobuf's int64, not the zigzag sint64 of Int64).
func Packed[T ~uint64 | ~int64](e *Encoder, field int, vs []T) {
	n := 0
	for _, v := range vs {
		n += (bits.Len64(uint64(v)|1) + 6) / 7
	}
	e.tag(field, TypeBytes)
	e.varint(uint64(n))
	for _, v := range vs {
		e.varint(uint64(v))
	}
}

// PackedUint64 appends a packed repeated varint field.
func (e *Encoder) PackedUint64(field int, vs []uint64) { Packed(e, field, vs) }

// Decoder iterates the fields of a wire-format message.
type Decoder struct {
	buf []byte
	pos int
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Done reports whether the whole message was consumed.
func (d *Decoder) Done() bool { return d.pos >= len(d.buf) }

// varint reads a varint. One of one or two bytes — every field's tag, most
// of the lengths a record spells — it reads without a loop, unless it ends
// the buffer; any other takes varintLong.
func (d *Decoder) varint() (uint64, error) {
	if p := d.pos; p+1 < len(d.buf) {
		b0, b1 := d.buf[p], d.buf[p+1]
		if b0 < 0x80 {
			d.pos = p + 1
			return uint64(b0), nil
		}
		if b1 < 0x80 {
			d.pos = p + 2
			return uint64(b0&0x7F) | uint64(b1)<<7, nil
		}
	}
	return d.varintLong()
}

func (d *Decoder) varintLong() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if d.pos >= len(d.buf) {
			return 0, ErrShort
		}
		b := d.buf[d.pos]
		d.pos++
		// The tenth byte holds bit 63 alone: anything more in it, a
		// continuation included, does not fit 64 bits.
		if shift == 63 && b > 1 {
			return 0, fmt.Errorf("wire: varint overflow")
		}
		v |= uint64(b&0x7F) << shift
		if b&0x80 == 0 {
			return v, nil
		}
		shift += 7
	}
}

// Next reads the next field's tag, returning its number and wire type.
func (d *Decoder) Next() (field, wtype int, err error) {
	tag, err := d.varint()
	if err != nil {
		return 0, 0, err
	}
	field = int(tag >> 3)
	wtype = int(tag & 7)
	if field <= 0 {
		return 0, 0, fmt.Errorf("wire: invalid field number %d", field)
	}
	return field, wtype, nil
}

// Uint64 reads a varint payload.
func (d *Decoder) Uint64() (uint64, error) { return d.varint() }

// Int64 reads a zigzag varint payload.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.varint()
	if err != nil {
		return 0, err
	}
	return int64(v>>1) ^ -int64(v&1), nil
}

// Bool reads a boolean varint payload.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.varint()
	return v != 0, err
}

// Float64 reads a fixed64 floating-point payload.
func (d *Decoder) Float64() (float64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, ErrShort
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits |= uint64(d.buf[d.pos+i]) << (8 * i)
	}
	d.pos += 8
	return math.Float64frombits(bits), nil
}

// Bytes reads a length-delimited payload. The returned slice aliases the
// decoder's buffer.
func (d *Decoder) Bytes() ([]byte, error) {
	n, err := d.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)-d.pos) {
		return nil, ErrShort
	}
	v := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return v, nil
}

// String reads a length-delimited payload as a string.
func (d *Decoder) String() (string, error) {
	b, err := d.Bytes()
	return string(b), err
}

// ReadPacked reads a packed repeated varint payload, appending its values
// to dst; it grows dst once, by the number of varints the payload ends.
func ReadPacked[T ~uint64 | ~int64](d *Decoder, dst []T) ([]T, error) {
	b, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	dst = slices.Grow(dst, Varints(b))
	sub := NewDecoder(b)
	for !sub.Done() {
		v, err := sub.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, T(v))
	}
	return dst, nil
}

// Varints counts the varints a packed payload ends: its bytes without the
// continuation bit. It is how many values the payload holds if it decodes.
func Varints(b []byte) int {
	n := 0
	for _, c := range b {
		if c < 0x80 {
			n++
		}
	}
	return n
}

// Skip discards a field of the given wire type.
func (d *Decoder) Skip(wtype int) error {
	switch wtype {
	case TypeVarint:
		_, err := d.varint()
		return err
	case TypeI64:
		if d.pos+8 > len(d.buf) {
			return ErrShort
		}
		d.pos += 8
		return nil
	case TypeBytes:
		_, err := d.Bytes()
		return err
	case TypeI32:
		if d.pos+4 > len(d.buf) {
			return ErrShort
		}
		d.pos += 4
		return nil
	default:
		return fmt.Errorf("wire: unknown wire type %d", wtype)
	}
}
