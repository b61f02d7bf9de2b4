package jpegc

import (
	"bytes"
	"errors"
	stdjpeg "image/jpeg"
	"testing"
)

func opts420() map[string]*Options {
	return map[string]*Options{
		"baseline-420":           {Quality: 80, Subsample420: true},
		"baseline-optimized-420": {Quality: 80, Subsample420: true, OptimizeHuffman: true},
		"progressive-420":        {Quality: 80, Subsample420: true, Progressive: true},
	}
}

func TestCoeffRoundTrip420(t *testing.T) {
	// Odd dimensions stress both the chroma half-resolution rounding and
	// the MCU padding path.
	for _, dims := range [][2]int{{64, 64}, {67, 45}, {33, 17}, {16, 48}} {
		img := testImage(dims[0], dims[1], 13)
		for name, o := range opts420() {
			t.Run(name, func(t *testing.T) {
				s := analyzedRoundTrip(t, img, o)
				if !s.geo.Subsample420 {
					t.Fatal("analysis ignored Subsample420")
				}
				if len(s.blocks[1]) >= len(s.blocks[0]) {
					t.Fatalf("chroma has %d blocks vs luma %d; expected ~1/4", len(s.blocks[1]), len(s.blocks[0]))
				}
			})
		}
	}
}

func TestTranscodeStdlibTo420Progressive(t *testing.T) {
	// The full real-world PCR path: a stdlib-encoded (4:2:0 baseline) JPEG
	// losslessly transcoded to progressive, indexed, truncated, decoded.
	// 70×54 makes the foreign stream carry MCU padding on both axes.
	img := testImage(70, 54, 43)
	var buf bytes.Buffer
	if err := stdjpeg.Encode(&buf, img, &stdjpeg.Options{Quality: 80}); err != nil {
		t.Fatal(err)
	}
	prog, err := Transcode(buf.Bytes(), &Options{Progressive: true})
	if err != nil {
		t.Fatal(err)
	}
	baseCoeffs, err := decoded(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	progCoeffs, err := decoded(prog)
	if err == nil {
		err = sameCoeffs(progCoeffs, baseCoeffs)
	}
	if err != nil {
		t.Fatalf("transcode of stdlib 4:2:0 stream is not lossless: %v", err)
	}
	// Lossless in pixels too, judged by the decoder that wrote the stream:
	// a coefficient the decoder misread would be carried into prog and
	// show here.
	want, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(prog)
	if err != nil {
		t.Fatal(err)
	}
	if e := meanAbsErr(got, want); e != 0 {
		t.Fatalf("transcoded stream decodes %v mean levels away from the original", e)
	}
	idx, err := IndexScans(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Scans) != 10 {
		t.Fatalf("scan count = %d", len(idx.Scans))
	}
	for n := 1; n <= 10; n++ {
		trunc, err := TruncateToScan(prog, idx, n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(trunc); err != nil {
			t.Fatalf("prefix %d: %v", n, err)
		}
	}
}

func TestTruncatedPrefixes420QualityMonotone(t *testing.T) {
	img := testImage(64, 64, 53)
	prog, err := Encode(img, &Options{Quality: 85, Progressive: true, Subsample420: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := IndexScans(prog)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decode(prog)
	if err != nil {
		t.Fatal(err)
	}
	prevErr := 1e9
	for n := 1; n <= len(idx.Scans); n++ {
		trunc, err := TruncateToScan(prog, idx, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(trunc)
		if err != nil {
			t.Fatalf("prefix %d: %v", n, err)
		}
		e := meanAbsErr(got, full)
		if n == len(idx.Scans) && e != 0 {
			t.Errorf("full prefix differs from full decode (MAE %v)", e)
		}
		if e > prevErr+3 {
			t.Errorf("prefix %d: MAE %v worse than previous %v", n, e, prevErr)
		}
		if e < prevErr {
			prevErr = e
		}
	}
}

func Test420SmallerThan444(t *testing.T) {
	img := testImage(96, 96, 63)
	full, err := Encode(img, &Options{Quality: 80, OptimizeHuffman: true})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Encode(img, &Options{Quality: 80, OptimizeHuffman: true, Subsample420: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) >= len(full) {
		t.Errorf("4:2:0 (%d bytes) not smaller than 4:4:4 (%d bytes)", len(sub), len(full))
	}
}

// TestGray420Rejected: there is no subsampled grayscale. Asked for 4:2:0, a
// gray image is encoded as it is without the request, and a gray stream
// whose frame claims 2×2 sampling is not this package's to transcode.
func TestGray420Rejected(t *testing.T) {
	img := testGray(24, 16, 7)
	plain, err := Encode(img, &Options{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Encode(img, &Options{Quality: 80, Subsample420: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sub, plain) {
		t.Error("grayscale encoded differently for a 4:2:0 request")
	}
	sof := bytes.Index(plain, []byte{0xFF, mSOF0})
	claims420 := append([]byte(nil), plain...)
	claims420[sof+4+6+1] = 0x22
	if _, err := Transcode(claims420, &Options{Progressive: true}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("grayscale 4:2:0 stream: err = %v, want ErrUnsupported", err)
	}
}
