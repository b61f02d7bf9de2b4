package jpegc

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	stdjpeg "image/jpeg"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// scanPrefixes returns stream cut after each of its scans, the last being
// the whole stream.
func scanPrefixes(t testing.TB, stream []byte) [][]byte {
	t.Helper()
	idx, err := IndexScans(stream)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for n := 1; n <= len(idx.Scans); n++ {
		trunc, err := TruncateToScan(stream, idx, n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, trunc)
	}
	return out
}

// planes returns an image's sample planes with their strides and, for each,
// the part of it the frame shows.
func planes(img image.Image) (pix [][]byte, strides []int, shown []image.Point) {
	switch img := img.(type) {
	case *image.Gray:
		return [][]byte{img.Pix}, []int{img.Stride}, []image.Point{img.Rect.Size()}
	case *image.YCbCr:
		c := img.Rect.Size()
		switch img.SubsampleRatio {
		case image.YCbCrSubsampleRatio422:
			c.X = (c.X + 1) / 2
		case image.YCbCrSubsampleRatio420:
			c = image.Pt((c.X+1)/2, (c.Y+1)/2)
		}
		return [][]byte{img.Y, img.Cb, img.Cr}, []int{img.YStride, img.CStride, img.CStride}, []image.Point{img.Rect.Size(), c, c}
	}
	return nil, nil, nil
}

// sameImage reports how got differs from want, or nil: the same concrete
// type, frame, subsampling and plane geometry, and the same sample at every
// position the frame shows. (Past the frame the two decoders differ in one
// place: the MCU padding of a 4:2:0 luma plane, which image/jpeg
// reconstructs from the padding blocks and this package, having discarded
// those, leaves zero.)
func sameImage(got, want image.Image) error {
	if g, w := got.Bounds(), want.Bounds(); g != w {
		return fmt.Errorf("frame = %v, want %v", g, w)
	}
	if g, ok := got.(*image.YCbCr); ok {
		if w, ok := want.(*image.YCbCr); ok && g.SubsampleRatio != w.SubsampleRatio {
			return fmt.Errorf("subsampling = %v, want %v", g.SubsampleRatio, w.SubsampleRatio)
		}
	}
	gp, gs, shown := planes(got)
	wp, ws, _ := planes(want)
	if len(gp) == 0 || len(gp) != len(wp) {
		return fmt.Errorf("image is a %T, want a %T", got, want)
	}
	for c := range gp {
		if gs[c] != ws[c] || len(gp[c]) != len(wp[c]) {
			return fmt.Errorf("plane %d: stride %d, %d bytes; want stride %d, %d bytes", c, gs[c], len(gp[c]), ws[c], len(wp[c]))
		}
		for y := 0; y < shown[c].Y; y++ {
			row := y * gs[c]
			if !bytes.Equal(gp[c][row:row+shown[c].X], wp[c][row:row+shown[c].X]) {
				return fmt.Errorf("plane %d differs in row %d", c, y)
			}
		}
	}
	return nil
}

func stdDecode(t testing.TB, stream []byte) image.Image {
	t.Helper()
	img, err := stdjpeg.Decode(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("image/jpeg: %v", err)
	}
	return img
}

// TestDecodeMatchesStdlib holds Decode to its oracle. The inverse DCT here
// is the fixed-point transform image/jpeg uses, rounding point for rounding
// point, so the bound on the difference is zero: same type, same frame, same
// plane geometry (whole MCUs), same samples — for each encoding, on sizes
// with MCU padding on neither, one and both axes, at every scan prefix, through
// each body of the transform.
func TestDecodeMatchesStdlib(t *testing.T) {
	eachIDCTPath(t, testDecodeMatchesStdlib)
}

func testDecodeMatchesStdlib(t *testing.T) {
	for _, tc := range []struct {
		name string
		img  image.Image
		opts Options
	}{
		{"gray-1x1", testGray(1, 1, 1), Options{}},
		{"gray-8x8", testGray(8, 8, 2), Options{}},
		{"gray-70x54", testGray(70, 54, 3), Options{}},
		{"444-64x64", testImage(64, 64, 4), Options{}},
		{"420-66x50", testImage(66, 50, 5), Options{Subsample420: true}},
		{"420-128x128", testImage(128, 128, 6), Options{Subsample420: true}},
	} {
		for _, progressive := range []bool{false, true} {
			for _, quality := range []int{30, 92} {
				opts := tc.opts
				opts.Progressive, opts.Quality = progressive, quality
				stream, err := Encode(tc.img, &opts)
				if err != nil {
					t.Fatal(err)
				}
				for n, prefix := range scanPrefixes(t, stream) {
					got, err := Decode(prefix)
					if err != nil {
						t.Fatalf("%s progressive=%v q%d, %d scans: %v", tc.name, progressive, quality, n+1, err)
					}
					want := stdDecode(t, prefix)
					if tc.name == "420-66x50" {
						// Whole MCUs: 5×4 of 16×16 luma, 8×8 chroma.
						y := got.(*image.YCbCr)
						if y.YStride != 80 || len(y.Y) != 80*64 || y.CStride != 40 || len(y.Cb) != 40*32 || len(y.Cr) != 40*32 {
							t.Fatalf("66x50 4:2:0 planes: Y %d/%d, C %d/%d/%d", y.YStride, len(y.Y), y.CStride, len(y.Cb), len(y.Cr))
						}
					}
					if err := sameImage(got, want); err != nil {
						t.Fatalf("%s progressive=%v q%d, %d scans: %v", tc.name, progressive, quality, n+1, err)
					}
				}
			}
		}
	}
	// Coefficients too large for the transform's 32 bits wrap around in
	// both decoders alike.
	hostile := hostileCoefficients()
	got, err := Decode(hostile)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameImage(got, stdDecode(t, hostile)); err != nil {
		t.Errorf("hostile coefficients: %v", err)
	}
}

// TestReconstructFastPaths checks the block-level shortcuts two ways on
// synthetic coefficients, the format's extremes among them (DC ±1024 and AC
// ±1023 under the largest divisors): bounding the work by the last non-zero
// index gives the samples of the unbounded transform, and the whole block
// path — DC-only fill, rows with no AC, rows never visited — gives the
// samples image/jpeg reconstructs from the same coefficients. Then both
// again on coefficients no encoder produces, large enough that the 32-bit
// arithmetic wraps at every step: the shortcuts are identities of that
// arithmetic and hold there too. Through each body of the transform.
func TestReconstructFastPaths(t *testing.T) {
	eachIDCTPath(t, testReconstructFastPaths)
}

func testReconstructFastPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	geo := coeffImage{Width: 64, Height: 64, NumComps: 1}
	for i := range geo.Quant[0] {
		geo.Quant[0][i] = uint16(1 + rng.Intn(255))
	}
	geo.Quant[0][0], geo.Quant[0][1] = 255, 255
	ci := newCoeffs(geo)
	last := make([]int, len(ci.blocks[0])) // zigzag index of each block's last coefficient
	for i := range ci.blocks[0] {
		blk := &ci.blocks[0][i]
		switch {
		case i < 4: // DC only, at and near the limits
			blk[0] = []int32{-1024, 1023, 0, 1}[i]
		case i < 8: // one row, one column, both at the limit
			blk[0] = 1023
			blk[1+7*(i&1)] = -1023
			blk[8] = int32(i/6) * 1023
			last[i] = 35
		default:
			last[i] = rng.Intn(64)
			for k := 0; k <= last[i]; k++ {
				if rng.Intn(3) == 0 {
					blk[zigzag[k]] = int32(rng.Intn(2047) - 1023)
				}
			}
			blk[0] = int32(rng.Intn(2048) - 1024)
		}
	}

	sealed, err := ci.sealed()
	if err != nil {
		t.Fatal(err)
	}
	q := multipliers(&geo.Quant[0])
	sameBounded := func(zz *block, last int) {
		t.Helper()
		bounded, full := make([]byte, 64), make([]byte, 64)
		reconstruct(zz, last, &q, bounded, 8)
		reconstruct(zz, 63, &q, full, 8)
		if !bytes.Equal(bounded, full) {
			t.Errorf("block %v: bounded by index %d\n%v\nunbounded\n%v", zz, last, bounded, full)
		}
	}
	for i := range sealed.blocks[0] {
		sameBounded(&sealed.blocks[0][i], last[i])
	}
	for i := 0; i < 64; i++ { // any int32, a third of them set, up to a random index
		var zz block
		last := rng.Intn(64)
		for k := 0; k <= last; k++ {
			if k == 0 || rng.Intn(3) == 0 {
				zz[k] = int32(rng.Uint32())
			}
		}
		sameBounded(&zz, last)
	}

	sameAsStdlib := func(name string, stream []byte) {
		t.Helper()
		got, err := Decode(stream)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameImage(got, stdDecode(t, stream)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, progressive := range []bool{false, true} {
		stream, err := sealed.encode(&Options{Progressive: progressive})
		if err != nil {
			t.Fatal(err)
		}
		sameAsStdlib(fmt.Sprintf("progressive=%v", progressive), stream)
	}
	// Blocks cut after 0, 1, 2, ... AC terms: the DC-only fill of a DC that
	// wraps, rows with no AC term whose first column wraps under the row
	// pass's shift, rows never visited beside rows that wrap.
	acs := []int{0, 1, 2, 3, 4, 5, 6, 9, 10, 14, 20, 21, 27, 35, 36, 62, 63}
	for len(acs) < 64 {
		acs = append(acs, rng.Intn(64))
	}
	sameAsStdlib("wrapping coefficients", wrappingCoefficients(rng, acs))
}

// wrappingCoefficients returns a progressive grayscale stream of len(acs)
// blocks whose coefficients wrap the transform's 32 bits as soon as they are
// dequantized: block i has a 16-bit DC difference and, from zigzag index 1
// on, acs[i] AC terms of 15 bits, their value bits from rng, all shifted up
// 13 places (Al) and quantized by 255.
func wrappingCoefficients(rng *rand.Rand, acs []int) []byte {
	geo := &coeffImage{Width: 8 * len(acs), Height: 8, NumComps: 1}
	for i := range geo.Quant[0] {
		geo.Quant[0][i] = 255
	}
	w := bitWriter{out: appendHeaders(nil, geo, true)}
	// The DC table's one code, "0", is category 16.
	w.out = appendSegment(w.out, mDHT, 1+16+1)
	w.out = append(append(append(w.out, 0x00, 1), make([]byte, 15)...), 16)
	w.out = appendSOS(w.out, ScanSpec{Comps: []int{0}, Al: 13}, true, false)
	for range acs {
		w.writeBits(rng.Uint32()&0xFFFF, 1+16)
	}
	w.flush()
	// The AC table's "0" is a 15-bit term after no zeros, "10" the end of
	// the block.
	w.out = appendSegment(w.out, mDHT, 1+16+2)
	w.out = append(append(append(w.out, 0x10, 1, 1), make([]byte, 14)...), 0x0F, 0x00)
	w.out = appendSOS(w.out, ScanSpec{Comps: []int{0}, Ss: 1, Se: 63, Al: 13}, false, true)
	for _, n := range acs {
		for k := 0; k < n; k++ {
			w.writeBits(rng.Uint32()&0x7FFF, 1+15)
		}
		if n < 63 {
			w.writeBits(0b10, 2)
		}
	}
	w.flush()
	return append(w.out, 0xFF, mEOI)
}

// TestDecodeAllocations holds a decode to its budget once the scratch pool
// is warm: the image's planes in one allocation, the image value, and one
// to spare.
func TestDecodeAllocations(t *testing.T) {
	stream, err := Transcode(benchInput(t), &Options{Progressive: true})
	if err != nil {
		t.Fatal(err)
	}
	allocs, bytes := allocsPerRun(func() {
		if _, err := Decode(stream); err != nil {
			t.Fatal(err)
		}
	})
	const frame = 128*128 + 2*64*64
	if allocs > 3 || bytes > frame+1024 {
		t.Errorf("Decode makes %d allocations of %d bytes for a %d-byte frame, want <= 3 and <= frame + 1 KB", allocs, bytes, frame)
	}
}

// splice returns stream with seg inserted before its first marker m.
func splice(t testing.TB, stream []byte, m byte, seg ...byte) []byte {
	t.Helper()
	at := bytes.Index(stream, []byte{0xFF, m})
	if at < 0 {
		t.Fatalf("stream has no marker %#x", m)
	}
	return append(append(append([]byte(nil), stream[:at]...), seg...), stream[at:]...)
}

// TestUnsupportedHandedToStdlib: a stream that is valid JPEG but outside the
// subset parsed here is declined with ErrUnsupported by Transcode, and
// Decode still returns its pixels, from image/jpeg. A
// corrupt stream is not such a stream: its error is this package's own.
func TestUnsupportedHandedToStdlib(t *testing.T) {
	img := testImage(32, 32, 9)
	base, err := Encode(img, &Options{Quality: 85})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Decode(base)
	if err != nil {
		t.Fatal(err)
	}
	sof := bytes.Index(base, []byte{0xFF, mSOF0})
	patched := func(at int, b byte) []byte {
		out := append([]byte(nil), base...)
		out[at] = b
		return out
	}
	// A third quantization table, unlike the second, for Cr alone.
	ownCrTable := patched(sof+4+6+3*2+2, 2)
	dqt := append([]byte{0xFF, mDQT, 0, 67, 2}, bytes.Repeat([]byte{7}, 64)...)
	ownCrTable = splice(t, ownCrTable, mSOF0, dqt...)

	for _, tc := range []struct {
		name    string
		stream  []byte
		decodes bool // image/jpeg decodes it, to the pixels of base
	}{
		// 16 MCUs and a restart every 64: no RST marker is ever due.
		{"restart interval", splice(t, base, mSOS, 0xFF, mDRI, 0, 4, 0, 64), true},
		{"extended sequential frame", patched(sof+1, 0xC1), true},
		{"Cr table of its own", ownCrTable, false},
		{"12-bit precision", patched(sof+4, 12), false},
		{"4:2:2 sampling", patched(sof+4+6+1, 0x21), false},
		{"four components", patched(sof+4+5, 4), false},
		{"16-bit quantization table", patched(bytes.Index(base, []byte{0xFF, mDQT})+4, 0x10), false},
	} {
		if _, err := Transcode(tc.stream, &Options{Progressive: true}); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: Transcode: err = %v, want ErrUnsupported", tc.name, err)
		}
		got, err := Decode(tc.stream)
		want, stdErr := stdjpeg.Decode(bytes.NewReader(tc.stream))
		if (err == nil) != (stdErr == nil) {
			t.Errorf("%s: Decode: err = %v, image/jpeg: %v", tc.name, err, stdErr)
			continue
		}
		if tc.decodes && err != nil {
			t.Errorf("%s: image/jpeg refuses the test input: %v", tc.name, err)
		}
		if err != nil {
			continue
		}
		if err := sameImage(got, want); err != nil {
			t.Errorf("%s: against image/jpeg: %v", tc.name, err)
		}
		if tc.decodes {
			if err := sameImage(got, plain); err != nil {
				t.Errorf("%s: against the unmodified stream: %v", tc.name, err)
			}
		}
	}

	prog, err := Transcode(base, &Options{Progressive: true})
	if err != nil {
		t.Fatal(err)
	}
	// Sixteen 1 bits where the scan's data begins: no Huffman code is all
	// ones.
	badCode := append([]byte(nil), base...)
	sos := bytes.Index(base, []byte{0xFF, mSOS})
	copy(badCode[sos+2+int(base[sos+2])<<8+int(base[sos+3]):], []byte{0xFF, 0x00, 0xFF, 0x00})
	for name, stream := range map[string][]byte{
		"cut baseline":    cutEntropy(t, base),
		"cut progressive": cutEntropy(t, prog),
		"bad code":        badCode,
	} {
		_, err := Decode(stream)
		var format stdjpeg.FormatError
		var unsupported stdjpeg.UnsupportedError
		switch {
		case err == nil:
			t.Errorf("%s: Decode accepted the stream", name)
		case errors.Is(err, ErrUnsupported):
			t.Errorf("%s: err = %v: corrupt, not unsupported", name, err)
		case errors.As(err, &format), errors.As(err, &unsupported), errors.Is(err, io.ErrUnexpectedEOF), !strings.HasPrefix(err.Error(), "jpegc: "):
			t.Errorf("%s: err = %v, which is not this package's: the stream reached image/jpeg", name, err)
		}
		if strings.HasPrefix(name, "cut") && !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", name, err)
		}
	}
}

// TestRefinementPastBandRefused: a refinement symbol whose run of zeros ends
// past the band is refused, as image/jpeg refuses it, and not decoded with
// its coefficient dropped.
func TestRefinementPastBandRefused(t *testing.T) {
	stream := refinementPastBand()
	if _, err := stdjpeg.Decode(bytes.NewReader(stream)); err == nil || !strings.Contains(err.Error(), "too many coefficients") {
		t.Fatalf("image/jpeg: err = %v, want too many coefficients", err)
	}
	if _, err := Decode(stream); err == nil || !strings.Contains(err.Error(), "out of band") {
		t.Errorf("Decode: err = %v, want an index out of band", err)
	}
	if _, err := Transcode(stream, &Options{Progressive: true}); err == nil {
		t.Error("Transcode accepted the stream")
	}
}
