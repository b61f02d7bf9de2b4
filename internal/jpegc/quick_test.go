package jpegc

import (
	"image"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomCoeffImage builds a structurally valid CoeffImage with arbitrary
// coefficient contents — the adversarial input for entropy-coding
// round-trips (real images never exercise extreme coefficient patterns like
// saturated high-frequency bands or alternating signs).
func randomCoeffImage(rng *rand.Rand) *CoeffImage {
	ci := &CoeffImage{
		Width:  rng.Intn(56) + 8,
		Height: rng.Intn(56) + 8,
	}
	if rng.Intn(2) == 0 {
		ci.NumComps = 1
	} else {
		ci.NumComps = 3
	}
	luma, chroma := QuantTables(rng.Intn(100) + 1)
	ci.Quant[0], ci.Quant[1] = luma, chroma
	n := ci.BlocksWide() * ci.BlocksHigh()
	for c := 0; c < ci.NumComps; c++ {
		ci.Blocks[c] = make([]Block, n)
		for i := range ci.Blocks[c] {
			blk := &ci.Blocks[c][i]
			switch rng.Intn(4) {
			case 0: // sparse, photograph-like
				for k := 0; k < 6; k++ {
					blk[rng.Intn(64)] = int32(rng.Intn(200) - 100)
				}
			case 1: // dense small values
				for k := range blk {
					blk[k] = int32(rng.Intn(7) - 3)
				}
			case 2: // large magnitudes (the extreme legal categories)
				for k := 0; k < 3; k++ {
					blk[rng.Intn(64)] = int32(rng.Intn(2047) - 1023)
				}
			case 3: // all zero
			}
			// Clamp to the T.81 8-bit ranges (validated by the encoder):
			// DC in [-1024, 1023], AC in [-1023, 1023].
			if blk[0] > 1023 {
				blk[0] = 1023
			}
			if blk[0] < -1024 {
				blk[0] = -1024
			}
		}
	}
	return ci
}

// TestQuickEntropyRoundTrip is the codec's core property: for any valid
// coefficient image, every entropy-coding mode is lossless.
func TestQuickEntropyRoundTrip(t *testing.T) {
	modes := []*Options{
		{},
		{OptimizeHuffman: true},
		{Progressive: true},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ci := randomCoeffImage(rng)
		for _, opts := range modes {
			data, err := EncodeCoeffs(ci, opts)
			if err != nil {
				t.Logf("seed %d: encode: %v", seed, err)
				return false
			}
			got, err := DecodeCoeffs(data)
			if err != nil {
				t.Logf("seed %d: decode: %v", seed, err)
				return false
			}
			if !got.Equal(ci) {
				t.Logf("seed %d: coefficients changed (progressive=%v)", seed, opts.Progressive)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(rng.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickTranscodeIdempotent checks baseline→progressive→baseline is the
// identity on coefficients for arbitrary inputs.
func TestQuickTranscodeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ci := randomCoeffImage(rng)
		base, err := EncodeCoeffs(ci, &Options{OptimizeHuffman: true})
		if err != nil {
			return false
		}
		prog, err := Transcode(base, &Options{Progressive: true})
		if err != nil {
			return false
		}
		back, err := Transcode(prog, &Options{OptimizeHuffman: true})
		if err != nil {
			return false
		}
		got, err := DecodeCoeffs(back)
		if err != nil {
			return false
		}
		return got.Equal(ci)
	}
	cfg := &quick.Config{
		MaxCount: 20,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(rng.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickScanPrefixesAlwaysDecode: every scan prefix of any progressive
// stream must decode without error — the property PCR correctness rests on.
func TestQuickScanPrefixesAlwaysDecode(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ci := randomCoeffImage(rng)
		data, err := EncodeCoeffs(ci, &Options{Progressive: true})
		if err != nil {
			return false
		}
		idx, err := IndexScans(data)
		if err != nil {
			return false
		}
		for n := 1; n <= len(idx.Scans); n++ {
			trunc, err := TruncateToScan(data, idx, n)
			if err != nil {
				return false
			}
			if _, err := DecodeCoeffs(trunc); err != nil {
				t.Logf("seed %d: prefix %d: %v", seed, n, err)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 20,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(rng.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// hostileCoefficients is a well-formed progressive stream, 16×8 grayscale,
// whose coefficients are as large as the syntax can make them: DC
// differences of category 16 and AC values of category 15, both scans at
// point transform 13, every divisor 255. Dequantized they are far outside
// what 32-bit inverse DCT arithmetic holds.
func hostileCoefficients() []byte {
	geo := &CoeffImage{Width: 16, Height: 8, NumComps: 1}
	for i := range geo.Quant[0] {
		geo.Quant[0][i] = 255
	}
	w := bitWriter{out: appendHeaders(nil, geo, true)}
	// scan appends a table whose one code, "0", means sym, and a scan that
	// repeats it n times, each time with size value bits, all ones.
	scan := func(class, sym byte, size uint, spec ScanSpec, n int) {
		w.out = appendSegment(w.out, mDHT, 1+16+1)
		w.out = append(w.out, class<<4, 1)
		w.out = append(append(w.out, make([]byte, 15)...), sym)
		w.out = appendSOS(w.out, spec, class == 0, class == 1)
		for ; n > 0; n-- {
			w.writeBits(1<<size-1, 1+size)
		}
		w.flush()
	}
	scan(0, 16, 16, ScanSpec{Comps: []int{0}, Al: 13}, 2)
	scan(1, 15, 15, ScanSpec{Comps: []int{0}, Ss: 1, Se: 63, Al: 13}, 2*63)
	return append(w.out, 0xFF, mEOI)
}

// FuzzDecodeCoeffs feeds arbitrary bytes to the three entry points that
// parse a JPEG stream. Truncated progressive streams are this system's
// normal input, so the seeds are a baseline stream, a progressive one,
// every scan prefix of it with and without its EOI, both streams with a
// scan's data cut short under intact markers, and one whose coefficients
// overflow the inverse DCT; testdata/fuzz adds hostile headers and
// bit-flipped streams. Any input may be refused. None may panic — an index
// outside a block or a sample plane would — and none may come back with a
// frame larger than checkDims allows, which is what bounds the allocation a
// header can ask for, or with sample planes that do not cover it.
func FuzzDecodeCoeffs(f *testing.F) {
	base, err := Encode(testImage(32, 32, 3), &Options{Quality: 70})
	if err != nil {
		f.Fatal(err)
	}
	prog, err := Transcode(base, &Options{Progressive: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(base)
	f.Add(prog)
	for _, trunc := range scanPrefixes(f, prog) {
		f.Add(trunc)
		f.Add(trunc[:len(trunc)-2])
	}
	// Scan data cut short under intact markers: refused as truncated.
	f.Add(cutEntropy(f, base))
	f.Add(cutEntropy(f, prog))
	f.Add(hostileCoefficients()) // accepted: TestDecodeMatchesStdlib decodes it
	f.Fuzz(func(t *testing.T, data []byte) {
		if ci, err := DecodeCoeffs(data); err == nil {
			if err := checkDims(ci.Width, ci.Height); err != nil {
				t.Fatalf("DecodeCoeffs accepted: %v", err)
			}
			for c := 0; c < ci.NumComps; c++ {
				if want := ci.CompBlocksWide(c) * ci.CompBlocksHigh(c); len(ci.Blocks[c]) != want {
					t.Fatalf("component %d has %d blocks, geometry says %d", c, len(ci.Blocks[c]), want)
				}
			}
		}
		if idx, err := IndexScans(data); err == nil {
			for n := 1; n <= len(idx.Scans); n++ {
				if _, err := TruncateToScan(data, idx, n); err != nil {
					t.Fatalf("scan prefix %d of an indexed stream: %v", n, err)
				}
			}
		}
		if img, err := Decode(data); err == nil {
			frame := img.Bounds().Size()
			if err := checkDims(frame.X, frame.Y); err != nil {
				t.Fatalf("Decode accepted: %v", err)
			}
			// Each plane is whole rows, enough of them and long enough for
			// the frame: all of it in the first plane, and in the chroma
			// planes at a subsampling no coarser than 4×4.
			pix, strides, _ := planes(img)
			for c := range pix {
				need := frame
				if c > 0 {
					need = image.Pt((frame.X+3)/4, (frame.Y+3)/4)
				}
				if strides[c] < need.X || len(pix[c])%strides[c] != 0 || len(pix[c])/strides[c] < need.Y {
					t.Fatalf("plane %d of a %v frame: %d bytes at stride %d", c, frame, len(pix[c]), strides[c])
				}
			}
		}
	})
}
