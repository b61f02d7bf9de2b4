package jpegc

import (
	"image"
	"reflect"
	"testing"
)

// TestDecodeIntoReusesFrame holds a decode into a recycled frame to a decode
// into a new one, planes and margins included: for each geometry, the frame
// a different image of the same MCU grid left behind is reused and comes
// back equal to a fresh decode; a frame of another grid, type or
// subsampling is not reused.
func TestDecodeIntoReusesFrame(t *testing.T) {
	encode := func(img image.Image, opts *Options) []byte {
		t.Helper()
		base, err := Encode(img, opts)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Transcode(base, &Options{Progressive: true})
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	c420 := &Options{Quality: 85, Subsample420: true}
	c444 := &Options{Quality: 85}
	for _, tc := range []struct {
		name string
		// stream is decoded into the frame that decoding previous left.
		stream, previous []byte
		reused           bool
	}{
		// 40 wide is 5 luma blocks in a 3-MCU (48-sample) plane: the
		// frame 48×48 left has samples in the margin.
		{"4:2:0 margin after none", encode(testImage(40, 40, 1), c420), encode(testImage(48, 48, 2), c420), true},
		{"4:2:0 same size", encode(testImage(27, 33, 3), c420), encode(testImage(27, 33, 4), c420), true},
		{"4:4:4", encode(testImage(33, 17, 5), c444), encode(testImage(40, 24, 6), c444), true},
		{"gray", encode(testGray(40, 24, 7), c444), encode(testGray(33, 17, 8), c444), true},
		{"4:2:0 into 4:4:4", encode(testImage(32, 32, 9), c420), encode(testImage(32, 32, 10), c444), false},
		{"color into gray", encode(testImage(32, 32, 11), c444), encode(testGray(32, 32, 12), c444), false},
		{"other grid", encode(testImage(64, 64, 13), c420), encode(testImage(48, 48, 14), c420), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := Decode(tc.stream)
			if err != nil {
				t.Fatal(err)
			}
			frame, err := Decode(tc.previous)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeInto(tc.stream, frame)
			if err != nil {
				t.Fatal(err)
			}
			if reused := got == frame; reused != tc.reused {
				t.Fatalf("frame reused: %v, want %v", reused, tc.reused)
			}
			if !reflect.DeepEqual(got, fresh) {
				t.Fatal("the decode into a used frame differs from the decode into a new one")
			}
		})
	}
}

// TestDecodeIntoAllocations: a decode into a frame of its geometry allocates
// next to nothing once the scratch pool is warm.
func TestDecodeIntoAllocations(t *testing.T) {
	stream, err := Transcode(benchInput(t), &Options{Progressive: true})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	allocs, bytes := allocsPerRun(func() {
		if frame, err = DecodeInto(stream, frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 || bytes > 256 {
		t.Errorf("DecodeInto a frame of the stream's geometry makes %d allocations of %d bytes, want <= 1 and <= 256 bytes", allocs, bytes)
	}
}

// tableStream is a 16×16 grayscale progressive stream of two scans, each
// through a table of one code, "0": DC first with the symbol dc (a category
// of dc value bits, all ones), then the whole AC band with ac (EOB, or a run
// of ac>>4 zeros and an ac&15-bit value, all ones, until the band is full).
// Streams of other symbols define their tables at the same positions with
// the same counts.
func tableStream(dc, ac byte) []byte {
	geo := &coeffImage{Width: 16, Height: 16, NumComps: 1}
	for i := range geo.Quant[0] {
		geo.Quant[0][i] = 2
	}
	w := bitWriter{out: appendHeaders(nil, geo, true)}
	oneCodeScan(&w, 0, dc, uint(dc), ScanSpec{Comps: []int{0}}, 4)
	n := 4 // an EOB per block
	if ac != 0 {
		n *= 63 / (1 + int(ac>>4))
	}
	oneCodeScan(&w, 1, ac, uint(ac&0x0F), ScanSpec{Comps: []int{0}, Ss: 1, Se: 63}, n)
	return append(w.out, 0xFF, mEOI)
}

// TestTableMemoKeysOnSymbols alternates, on one scratch, three streams whose
// table definitions have the same counts at the same positions but other
// symbols: a table remembered from one must not serve the other. Each
// decodes as image/jpeg decodes it, every time.
func TestTableMemoKeysOnSymbols(t *testing.T) {
	streams := [][]byte{tableStream(1, 0x00), tableStream(2, 0x01), tableStream(3, 0x21)}
	s := new(scratch)
	for round := 0; round < 3; round++ {
		for i, stream := range streams {
			if err := s.decode(stream); err != nil {
				t.Fatalf("round %d, stream %d: %v", round, i, err)
			}
			if err := sameImage(s.pixels(nil), stdDecode(t, stream)); err != nil {
				t.Fatalf("round %d, stream %d: %v", round, i, err)
			}
		}
	}
}

// TestScanOrderKeysOnGeometryAndComponents: the kept scan order is rebuilt
// whenever the geometry or the scan's components change — a foreign
// progressive stream may code DC for one component, then for the others —
// and is what mcuOrder builds, every time.
func TestScanOrderKeysOnGeometryAndComponents(t *testing.T) {
	s := new(scratch)
	for _, geo := range []coeffImage{
		{Width: 40, Height: 24, NumComps: 3, Subsample420: true},
		{Width: 40, Height: 24, NumComps: 3},
		{Width: 24, Height: 40, NumComps: 3, Subsample420: true},
		{Width: 24, Height: 40, NumComps: 1},
	} {
		s.setGeometry(&geo)
		for _, comps := range [][]int{{0, 1, 2}, {0}, {1, 2}, {0, 1, 2}, {2}, {1}, {0, 1, 2}} {
			if comps[len(comps)-1] >= geo.NumComps {
				continue
			}
			got := s.scanOrder(comps)
			if want := geo.mcuOrder(nil, comps); !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v, components %v: the kept order is not mcuOrder's", geo, comps)
			}
		}
	}
}
