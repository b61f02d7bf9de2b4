package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRoundTripAllTypes(t *testing.T) {
	e := NewEncoder(nil)
	e.Uint64(1, 300)
	e.Int64(2, -42)
	e.Bool(3, true)
	e.Float64(4, 3.14159)
	e.Bytes(5, []byte{1, 2, 3})
	e.String(6, "hello")
	e.PackedUint64(7, []uint64{0, 1, 127, 128, 1 << 40})

	d := NewDecoder(e.Encode())
	expectField := func(want, wantType int) {
		t.Helper()
		f, wt, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f != want || wt != wantType {
			t.Fatalf("field %d type %d, want %d/%d", f, wt, want, wantType)
		}
	}
	expectField(1, TypeVarint)
	if v, _ := d.Uint64(); v != 300 {
		t.Errorf("u64 = %d", v)
	}
	expectField(2, TypeVarint)
	if v, _ := d.Int64(); v != -42 {
		t.Errorf("i64 = %d", v)
	}
	expectField(3, TypeVarint)
	if v, _ := d.Bool(); !v {
		t.Error("bool = false")
	}
	expectField(4, TypeI64)
	if v, _ := d.Float64(); v != 3.14159 {
		t.Errorf("f64 = %v", v)
	}
	expectField(5, TypeBytes)
	if v, _ := d.Bytes(); string(v) != "\x01\x02\x03" {
		t.Errorf("bytes = %x", v)
	}
	expectField(6, TypeBytes)
	if v, _ := d.String(); v != "hello" {
		t.Errorf("string = %q", v)
	}
	expectField(7, TypeBytes)
	vs, err := ReadPacked[uint64](d, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 1, 127, 128, 1 << 40}
	for i := range want {
		if vs[i] != want[i] {
			t.Errorf("packed[%d] = %d, want %d", i, vs[i], want[i])
		}
	}
	if !d.Done() {
		t.Error("decoder not exhausted")
	}
}

func TestVarintQuick(t *testing.T) {
	f := func(v uint64) bool {
		e := NewEncoder(nil)
		e.Uint64(1, v)
		d := NewDecoder(e.Encode())
		if _, _, err := d.Next(); err != nil {
			return false
		}
		got, err := d.Uint64()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestVarintWidths: a varint of every width up to the two bytes read
// inline and past them decodes to its value whether it ends the buffer or
// bytes follow it, and every cut of it is ErrShort.
func TestVarintWidths(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 255, 1<<14 - 1, 1 << 14, 1<<21 - 1, 1 << 21, math.MaxUint64} {
		enc := binary.AppendUvarint(nil, v)
		for _, tail := range [][]byte{nil, {0x7F}, {0x80, 0x01}} {
			d := NewDecoder(append(slices.Clone(enc), tail...))
			if got, err := d.Uint64(); err != nil || got != v || d.pos != len(enc) {
				t.Errorf("%d followed by %x: got %d at %d, %v; want it at %d", v, tail, got, d.pos, err, len(enc))
			}
		}
		for cut := range len(enc) {
			if _, err := NewDecoder(enc[:cut]).Uint64(); !errors.Is(err, ErrShort) {
				t.Errorf("%d cut to %d of %d bytes: err = %v, want ErrShort", v, cut, len(enc), err)
			}
		}
	}
}

func TestZigzagQuick(t *testing.T) {
	f := func(v int64) bool {
		e := NewEncoder(nil)
		e.Int64(1, v)
		d := NewDecoder(e.Encode())
		if _, _, err := d.Next(); err != nil {
			return false
		}
		got, err := d.Int64()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64SpecialValues(t *testing.T) {
	for _, v := range []float64{0, -0, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		e := NewEncoder(nil)
		e.Float64(1, v)
		d := NewDecoder(e.Encode())
		d.Next()
		got, err := d.Float64()
		if err != nil || got != v {
			t.Errorf("f64 %v round-tripped to %v (err %v)", v, got, err)
		}
	}
	// NaN round-trips to NaN.
	e := NewEncoder(nil)
	e.Float64(1, math.NaN())
	d := NewDecoder(e.Encode())
	d.Next()
	if got, _ := d.Float64(); !math.IsNaN(got) {
		t.Errorf("NaN decoded as %v", got)
	}
}

func TestSkipUnknownFields(t *testing.T) {
	e := NewEncoder(nil)
	e.Uint64(1, 7)
	e.Bytes(2, []byte("skip me"))
	e.Float64(3, 1.5)
	e.Uint64(4, 9)

	d := NewDecoder(e.Encode())
	var got []uint64
	for !d.Done() {
		f, wt, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f == 1 || f == 4 {
			v, err := d.Uint64()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, v)
			continue
		}
		if err := d.Skip(wt); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Errorf("got %v", got)
	}
}

func TestTruncatedInputs(t *testing.T) {
	e := NewEncoder(nil)
	e.Bytes(1, make([]byte, 100))
	full := e.Encode()
	for cut := 1; cut < len(full); cut += 7 {
		d := NewDecoder(full[:cut])
		_, _, err := d.Next()
		if err != nil {
			continue // tag itself truncated: fine
		}
		if _, err := d.Bytes(); err == nil && cut < len(full) {
			t.Fatalf("cut %d: truncated bytes accepted", cut)
		}
	}
}

func TestFuzzishRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		d := NewDecoder(buf)
		// Must terminate without panicking.
		for !d.Done() {
			_, wt, err := d.Next()
			if err != nil {
				break
			}
			if err := d.Skip(wt); err != nil {
				break
			}
		}
	}
}

func TestVarintOverflowRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		want uint64
		ok   bool
	}{
		{"max uint64", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, math.MaxUint64, true},
		{"bit 63 alone", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, 1 << 63, true},
		{"tenth byte past bit 63", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, 0, false},
		{"tenth byte continues", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x81, 0x00}, 0, false},
	} {
		got, err := NewDecoder(tc.in).Uint64()
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("%s: got %d, %v; want %d", tc.name, got, err, tc.want)
		}
		if !tc.ok && (err == nil || err.Error() != "wire: varint overflow") {
			t.Errorf("%s: got %d, %v; want the varint overflow error", tc.name, got, err)
		}
	}
}

// A packed int64 field is spelled as the uint64s of its two's complements,
// its length computed up front agrees with the varints written, and
// ReadPacked appends to what it is given.
func TestPackedSignedMatchesUnsigned(t *testing.T) {
	signed := []int64{0, 1, -1, 127, 128, -300, math.MaxInt64, math.MinInt64}
	unsigned := make([]uint64, len(signed))
	for i, v := range signed {
		unsigned[i] = uint64(v)
	}
	a, b := NewEncoder(nil), NewEncoder(nil)
	Packed(a, 3, signed)
	b.PackedUint64(3, unsigned)
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatalf("packed int64 %x, packed uint64 %x", a.Encode(), b.Encode())
	}
	d := NewDecoder(a.Encode())
	if _, _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPacked(d, []int64{42})
	if err != nil || !d.Done() || !slices.Equal(got, append([]int64{42}, signed...)) {
		t.Fatalf("ReadPacked = %v, %v; want 42 then %v", got, err, signed)
	}
}
