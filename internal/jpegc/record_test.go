package jpegc

import (
	"bytes"
	"image"
	"image/draw"
	"testing"
)

// recordStream splices image i of a coded record into a stream of its first
// n scans: header, then each scan's framing and data, then EOI.
func recordStream(rec *CodedRecord, i, n int) []byte {
	img := &rec.Images[i]
	h := &rec.Headers[img.Header]
	out := append([]byte(nil), h.JPEG...)
	for j := range n {
		out = append(out, rec.Scripts[h.Script][j]...)
		out = append(out, img.Scans[j]...)
	}
	return append(out, 0xFF, mEOI)
}

// recordStreams splices every image of rec whole.
func recordStreams(rec *CodedRecord) [][]byte {
	out := make([][]byte, len(rec.Images))
	for i := range out {
		h := &rec.Headers[rec.Images[i].Header]
		out[i] = recordStream(rec, i, len(rec.Scripts[h.Script]))
	}
	return out
}

func grayOf(img image.Image) *image.Gray {
	g := image.NewGray(img.Bounds())
	draw.Draw(g, g.Bounds(), img, img.Bounds().Min, draw.Src)
	return g
}

// mixedInputs are baseline streams of every kind a record can mix:
// grayscale, 4:2:0 and 4:4:4 colour, two sizes, two quantizers.
func mixedInputs(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for k, c := range []struct {
		w, h    int
		gray    bool
		quality int
		sub420  bool
	}{
		{40, 32, false, 85, true},
		{40, 32, true, 85, false},
		{40, 32, false, 85, true},
		{23, 37, false, 60, false},
		{40, 32, false, 60, true},
		{23, 37, true, 60, false},
		{40, 32, false, 85, false},
	} {
		var img image.Image = testImage(c.w, c.h, int64(k+1))
		if c.gray {
			img = grayOf(img)
		}
		data, err := Encode(img, &Options{Quality: c.quality, Subsample420: c.sub420})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// TestRecordCoderLossless: every image of a mixed record, spliced at every
// scan count, decodes; spliced whole, it holds the input's coefficients.
func TestRecordCoderLossless(t *testing.T) {
	inputs := mixedInputs(t)
	var rc RecordCoder
	rec, err := rc.Transcode(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Headers) != 6 || len(rec.Scripts) != 2 {
		t.Fatalf("%d headers and %d scripts, want 6 and 2", len(rec.Headers), len(rec.Scripts))
	}
	for i, in := range inputs {
		h := &rec.Headers[rec.Images[i].Header]
		scans := len(rec.Scripts[h.Script])
		for n := 1; n < scans; n++ {
			if _, err := Decode(recordStream(rec, i, n)); err != nil {
				t.Fatalf("image %d, %d scans: %v", i, n, err)
			}
		}
		got, err := decoded(recordStream(rec, i, scans))
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		want, err := decoded(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameCoeffs(got, want); err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
	}
}

// TestRecordOfOneIsTranscode: with one image the shared tables are the
// image's own, so the spliced stream is its Transcode byte for byte.
func TestRecordOfOneIsTranscode(t *testing.T) {
	var rc RecordCoder
	for i, in := range mixedInputs(t) {
		rec, err := rc.Transcode([][]byte{in})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Transcode(in, &Options{Progressive: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := recordStreams(rec)[0]; !bytes.Equal(got, want) {
			t.Fatalf("input %d: a record of one is not its transcode", i)
		}
	}
}

// TestRecordCoderInputForm: baseline inputs and their progressive
// transcodes hold the same coefficients and so code to the same record; and
// a coder reused across records of other shapes codes a record as a fresh
// one does.
func TestRecordCoderInputForm(t *testing.T) {
	inputs := mixedInputs(t)
	prog := make([][]byte, len(inputs))
	for i, in := range inputs {
		var err error
		if prog[i], err = Transcode(in, &Options{Progressive: true}); err != nil {
			t.Fatal(err)
		}
	}
	var fresh, reused RecordCoder
	rec, err := fresh.Transcode(inputs)
	if err != nil {
		t.Fatal(err)
	}
	want := recordStreams(rec)
	for _, batch := range [][][]byte{inputs[:2], inputs[3:], prog} {
		rec, err := reused.Transcode(batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(prog) {
			continue
		}
		for i, got := range recordStreams(rec) {
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("image %d: progressive input through a reused coder codes differently", i)
			}
		}
	}
}

// TestRecordCoderNamesFailingImage: the error is the first failing input's,
// in input order.
func TestRecordCoderNamesFailingImage(t *testing.T) {
	inputs := mixedInputs(t)
	inputs[2] = []byte("not a jpeg")
	inputs[5] = inputs[5][:len(inputs[5])/2]
	var rc RecordCoder
	_, err := rc.Transcode(inputs)
	ie, ok := err.(*ImageError)
	if !ok || ie.Index != 2 {
		t.Fatalf("err = %v, want image 2's", err)
	}
}
