package jpegc

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	stdjpeg "image/jpeg"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func stdEncode(t testing.TB, img image.Image, quality int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := stdjpeg.Encode(&buf, img, &stdjpeg.Options{Quality: quality}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTranscodeForeignStreams is the differential check on the decoder: the
// inputs come from image/jpeg's encoder — Annex K tables, whose 16-bit codes
// the noise at quality 95 reaches, 4:2:0 with MCU padding on one or both
// axes, and grayscale — and the transcoded stream must carry exactly the
// coefficients of the input and decode, by image/jpeg, to exactly its
// pixels.
func TestTranscodeForeignStreams(t *testing.T) {
	for _, tc := range []struct {
		name string
		img  image.Image
	}{
		{"70x54", testImage(70, 54, 43)},
		{"33x17", testImage(33, 17, 44)},
		{"129x65", testImage(129, 65, 45)},
		{"gray-31x57", testGray(31, 57, 46)},
	} {
		for _, quality := range []int{30, 75, 95} {
			in := stdEncode(t, tc.img, quality)
			want, err := decoded(in)
			if err != nil {
				t.Fatalf("%s q%d: %v", tc.name, quality, err)
			}
			wantPix, err := stdjpeg.Decode(bytes.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range goldenModes {
				opts := m.opts
				out, err := Transcode(in, &opts)
				if err != nil {
					t.Fatalf("%s q%d → %s: %v", tc.name, quality, m.name, err)
				}
				got, err := decoded(out)
				if err != nil {
					t.Fatalf("%s q%d → %s: %v", tc.name, quality, m.name, err)
				}
				if err := sameCoeffs(got, want); err != nil {
					t.Errorf("%s q%d → %s: %v", tc.name, quality, m.name, err)
				}
				gotPix, err := stdjpeg.Decode(bytes.NewReader(out))
				if err != nil {
					t.Fatalf("%s q%d → %s: image/jpeg refuses the output: %v", tc.name, quality, m.name, err)
				}
				if e := meanAbsErr(gotPix, wantPix); e != 0 || gotPix.Bounds() != wantPix.Bounds() {
					t.Errorf("%s q%d → %s: pixels differ from the input's (MAE %v)", tc.name, quality, m.name, e)
				}
			}
		}
	}
}

// cutEntropy returns stream with the second half of its first scan's bytes
// removed and an EOI appended: the markers are all in place, but the scan's
// data ends long before its last block.
func cutEntropy(t testing.TB, stream []byte) []byte {
	t.Helper()
	idx, err := IndexScans(stream)
	if err != nil {
		t.Fatal(err)
	}
	sc := idx.Scans[0]
	cut := sc.Offset + sc.Length - sc.Length/2
	if stream[cut-1] == 0xFF {
		cut-- // not between a 0xFF and its stuff byte
	}
	return append(append([]byte(nil), stream[:cut]...), 0xFF, mEOI)
}

// TestTruncatedEntropyRefused: a scan that needs more bits than its data
// holds is a truncated stream, as it is to image/jpeg — it used to decode
// from the zeros fed past the end and be transcoded into a well-formed
// stream of a different image. Reading ahead is not needing: a scan cut at
// its very end, padding bits gone, still decodes.
func TestTruncatedEntropyRefused(t *testing.T) {
	base, err := Encode(testImage(96, 96, 91), &Options{Quality: 90, Subsample420: true})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Transcode(base, &Options{Progressive: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, stream := range map[string][]byte{"baseline": base, "progressive": prog} {
		cut := cutEntropy(t, stream)
		if _, err := stdjpeg.Decode(bytes.NewReader(cut)); err == nil {
			t.Fatalf("%s: image/jpeg accepts the cut stream; the test input is wrong", name)
		}
		if _, err := Decode(cut); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: Decode: err = %v, want ErrTruncated", name, err)
		}
		if out, err := Transcode(cut, &Options{Progressive: true}); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: Transcode: %d bytes, err = %v, want ErrTruncated", name, len(out), err)
		}
	}
}

// allocsPerRun reports the allocations and allocated bytes of one call of f,
// as the median over several calls — which, unlike testing.AllocsPerRun's
// mean, is not moved by the occasional call that finds the scratch pool
// emptied (by a collection or, under the race detector, at random).
func allocsPerRun(f func()) (mallocs, bytes uint64) {
	f() // warm up
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 21
	var m, b [runs]uint64
	var before, after runtime.MemStats
	for i := range m {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		m[i], b[i] = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	}
	slices.Sort(m[:])
	slices.Sort(b[:])
	return m[runs/2], b[runs/2]
}

// TestTranscodeAllocations holds the transcode to its budget: the scratch
// state is pooled, so an image costs little more than the stream returned.
func TestTranscodeAllocations(t *testing.T) {
	in := benchInput(t)
	opts := &Options{Progressive: true}
	var out []byte
	allocs, bytes := allocsPerRun(func() {
		var err error
		if out, err = Transcode(in, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 || bytes > 2*uint64(len(out)) {
		t.Errorf("Transcode makes %d allocations of %d bytes for a %d-byte stream, want <= 12 and <= 2x", allocs, bytes, len(out))
	}
}

// TestIndexScansAllocations: finding where each scan ends copies nothing,
// so what IndexScans allocates — the index it returns — depends on the
// number of scans and not on the length of the stream.
func TestIndexScansAllocations(t *testing.T) {
	measure := func(size int) (allocs, bytes uint64, streamLen int) {
		stream, err := Encode(testImage(size, size, 5), &Options{Quality: 90, Progressive: true})
		if err != nil {
			t.Fatal(err)
		}
		allocs, bytes = allocsPerRun(func() {
			if _, err := IndexScans(stream); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, bytes, len(stream)
	}
	smallAllocs, smallBytes, smallLen := measure(16)
	largeAllocs, largeBytes, largeLen := measure(256)
	if largeLen < 40*smallLen {
		t.Fatalf("streams are %d and %d bytes; want them far apart", smallLen, largeLen)
	}
	if largeAllocs != smallAllocs || largeBytes != smallBytes {
		t.Errorf("indexing %d bytes: %d allocations, %d bytes; indexing %d bytes: %d allocations, %d bytes",
			smallLen, smallAllocs, smallBytes, largeLen, largeAllocs, largeBytes)
	}
}

// TestUndefinedTableRefused: a scan that names a Huffman table no DHT
// segment defined is refused before any of it is decoded — for the one scan
// of a baseline stream, and for a DC and an AC scan of a progressive one.
func TestUndefinedTableRefused(t *testing.T) {
	// withoutDHT removes the n-th (0-based) DHT segment of stream.
	withoutDHT := func(stream []byte, n int) []byte {
		for i := 0; i+4 <= len(stream); i++ {
			if stream[i] == 0xFF && stream[i+1] == mDHT {
				if n--; n < 0 {
					end := i + 2 + int(stream[i+2])<<8 + int(stream[i+3])
					return append(append([]byte(nil), stream[:i]...), stream[end:]...)
				}
			}
		}
		t.Fatal("stream has too few DHT segments")
		return nil
	}
	img := testImage(32, 32, 77)
	base, err := Encode(img, &Options{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Encode(img, &Options{Quality: 80, Progressive: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, stream := range map[string][]byte{
		"baseline":       withoutDHT(base, 0),
		"progressive DC": withoutDHT(prog, 0),
		"progressive AC": withoutDHT(prog, 1),
	} {
		_, err := Decode(stream)
		if err == nil || !strings.Contains(err.Error(), "undefined huffman table") {
			t.Errorf("%s: err = %v, want an undefined-table refusal", name, err)
		}
	}
}

// twoTableBaseline returns a grayscale baseline stream of width×8 pixels,
// every divisor 1, whose DC table's one code "0" means dcSym and whose AC
// table's codes "0" and "1" mean ac[0] and ac[1]; body writes the scan's
// entropy-coded bits.
func twoTableBaseline(width int, dcSym byte, ac [2]byte, body func(w *bitWriter)) []byte {
	geo := &coeffImage{Width: width, Height: 8, NumComps: 1}
	for i := range geo.Quant[0] {
		geo.Quant[0][i] = 1
	}
	w := bitWriter{out: appendHeaders(nil, geo, false)}
	w.out = appendSegment(w.out, mDHT, 2*(1+16)+3)
	w.out = append(append(append(w.out, 0x00, 1), make([]byte, 15)...), dcSym)
	w.out = append(append(append(w.out, 0x10, 2), make([]byte, 15)...), ac[0], ac[1])
	w.out = appendSOS(w.out, ScanSpec{Comps: []int{0}, Se: 63}, true, true)
	body(&w)
	w.flush()
	return append(w.out, 0xFF, mEOI)
}

// TestTranscodeRefusesOutOfRangeCoefficients: a baseline stream may carry
// coefficients that 8-bit precision has no Huffman category for — an AC
// value of category 11, DC differences that add up past ±1023. The decoder
// takes them; the transcode must refuse them rather than write a stream
// that no decoder can read, wherever in the block they sit.
func TestTranscodeRefusesOutOfRangeCoefficients(t *testing.T) {
	const (
		acRange = "AC %d out of [-1023, 1023]"
		dcRange = "DC %d out of [-1024, 1023]"
	)
	for _, tc := range []struct {
		name string
		in   []byte
		want string
	}{
		{"AC category 11 at index 1", twoTableBaseline(8, 0, [2]byte{0x0B, 0x00}, func(w *bitWriter) {
			w.writeBits(0, 1)              // DC difference 0
			w.writeBits(0<<11|0x7FF, 1+11) // 2047 at index 1
			w.writeBits(1, 1)              // EOB
		}), fmt.Sprintf(acRange, 2047)},
		{"AC category 11 at index 63", twoTableBaseline(8, 0, [2]byte{0xF0, 0xEB}, func(w *bitWriter) {
			w.writeBits(0, 1)              // DC difference 0
			w.writeBits(0, 3)              // three ZRLs: index 49
			w.writeBits(1<<11|0x000, 1+11) // 14 zeros, then -2047 at index 63
		}), fmt.Sprintf(acRange, -2047)},
		{"DC differences past +1023", twoTableBaseline(16, 10, [2]byte{0x00, 0x01}, func(w *bitWriter) {
			for range 2 {
				w.writeBits(0<<10|0x3FF, 1+10) // +1023
				w.writeBits(0, 1)              // EOB
			}
		}), fmt.Sprintf(dcRange, 2046)},
		{"DC differences past -1024", twoTableBaseline(16, 10, [2]byte{0x00, 0x01}, func(w *bitWriter) {
			for range 2 {
				w.writeBits(0, 1+10) // -1023
				w.writeBits(0, 1)    // EOB
			}
		}), fmt.Sprintf(dcRange, -2046)},
	} {
		if _, err := Decode(tc.in); err != nil {
			t.Fatalf("%s: the crafted stream does not decode: %v", tc.name, err)
		}
		for _, m := range goldenModes {
			opts := m.opts
			out, err := Transcode(tc.in, &opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) || out != nil {
				t.Errorf("%s → %s: %d bytes, err = %v; want no stream and %q", tc.name, m.name, len(out), err, tc.want)
			}
		}
	}
}
