package wire

import (
	"math"
	"testing"
)

// fuzzField is one field FuzzWireDecoder read, as Encoder would write it.
type fuzzField struct {
	num, wtype int
	u          uint64 // TypeVarint's value, TypeI64's bits
	b          []byte // TypeBytes' payload
}

// FuzzWireDecoder walks the fields of arbitrary bytes with Next, reading each
// payload with every typed read that applies to its wire type and with Skip.
// The oracle: nothing panics; the typed reads and Skip agree on where the
// field ends and on whether it is whole; every Bytes result lies inside the
// buffer; an accepted varint re-encodes and decodes to the same value; and
// the fields read, written again by Encoder, read back field for field.
//
// Seeds in testdata/fuzz: a clean message of every type, a ten-byte varint
// past 64 bits, a length of 2^40, and a truncated fixed64.
func FuzzWireDecoder(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		fields := readFields(t, b)

		e := NewEncoder(nil)
		for _, fl := range fields {
			switch fl.wtype {
			case TypeVarint:
				e.Uint64(fl.num, fl.u)
			case TypeI64:
				e.Float64(fl.num, math.Float64frombits(fl.u))
			case TypeBytes:
				e.Bytes(fl.num, fl.b)
			}
		}
		var again []fuzzField
		for _, fl := range readFields(t, e.Encode()) {
			if fl.wtype != TypeI32 {
				again = append(again, fl)
			}
		}
		var want []fuzzField
		for _, fl := range fields {
			if fl.wtype != TypeI32 {
				want = append(want, fl)
			}
		}
		if len(again) != len(want) {
			t.Fatalf("%d fields written read back as %d", len(want), len(again))
		}
		for i, fl := range want {
			got := again[i]
			if got.num != fl.num || got.wtype != fl.wtype || got.u != fl.u || string(got.b) != string(fl.b) {
				t.Fatalf("field %d written as %+v read back as %+v", i, fl, got)
			}
		}
	})
}

// readFields reads b's fields up to its end or its first malformed field,
// checking each payload as FuzzWireDecoder describes.
func readFields(t *testing.T, b []byte) []fuzzField {
	d := NewDecoder(b)
	var fields []fuzzField
	for !d.Done() {
		num, wtype, err := d.Next()
		if err != nil {
			return fields
		}
		skip := *d
		skipErr := skip.Skip(wtype)
		fl := fuzzField{num: num, wtype: wtype}
		switch wtype {
		case TypeVarint:
			signed, flag := *d, *d
			fl.u, err = d.Uint64()
			if err == nil {
				checkVarint(t, fl.u)
			}
			i, ierr := signed.Int64()
			if (ierr == nil) != (err == nil) || signed.pos != d.pos || (err == nil && uint64(i<<1^i>>63) != fl.u) {
				t.Fatalf("Int64 read %d, %v to %d; Uint64 %d, %v to %d", i, ierr, signed.pos, fl.u, err, d.pos)
			}
			v, berr := flag.Bool()
			if (berr == nil) != (err == nil) || flag.pos != d.pos || (err == nil && v != (fl.u != 0)) {
				t.Fatalf("Bool read %v, %v to %d; Uint64 %d, %v to %d", v, berr, flag.pos, fl.u, err, d.pos)
			}
		case TypeI64:
			var v float64
			v, err = d.Float64()
			fl.u = math.Float64bits(v)
		case TypeBytes:
			str, packed := *d, *d
			fl.b, err = d.Bytes()
			if err == nil {
				checkInside(t, b, fl.b)
			}
			s, serr := str.String()
			if (serr == nil) != (err == nil) || str.pos != d.pos || s != string(fl.b) {
				t.Fatalf("String read %q, %v to %d; Bytes %q, %v to %d", s, serr, str.pos, fl.b, err, d.pos)
			}
			vs, perr := ReadPacked[uint64](&packed, nil)
			if perr == nil {
				if err != nil || packed.pos != d.pos {
					t.Fatalf("ReadPacked read to %d; Bytes to %d, %v", packed.pos, d.pos, err)
				}
				for _, v := range vs {
					checkVarint(t, v)
				}
			}
		default:
			err = skipErr
			d.pos = skip.pos
		}
		if (skipErr == nil) != (err == nil) || (err == nil && skip.pos != d.pos) {
			t.Fatalf("type %d: Skip ends at %d, %v; the read at %d, %v", wtype, skip.pos, skipErr, d.pos, err)
		}
		if err != nil {
			return fields
		}
		fields = append(fields, fl)
	}
	return fields
}

// checkVarint requires v to survive an Encoder and a Decoder.
func checkVarint(t *testing.T, v uint64) {
	e := NewEncoder(nil)
	e.Uint64(1, v)
	d := NewDecoder(e.Encode())
	if _, _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	got, err := d.Uint64()
	if err != nil || got != v || !d.Done() {
		t.Fatalf("varint %d re-encoded decodes as %d, %v", v, got, err)
	}
}

// checkInside requires v to be a window of buf[:len(buf)].
func checkInside(t *testing.T, buf, v []byte) {
	at := cap(buf) - cap(v) // where v starts, if it is a window of buf
	if at < 0 || at+len(v) > len(buf) || (len(v) > 0 && &buf[at] != &v[0]) {
		t.Fatalf("a %d-byte payload (capacity %d) is not inside its %d-byte buffer", len(v), cap(v), len(buf))
	}
}
