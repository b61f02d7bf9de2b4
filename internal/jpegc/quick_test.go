package jpegc

import (
	"bytes"
	"fmt"
	"image"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// coeffs is an image given by its coefficients instead of its pixels: a
// geometry and every block of it, in natural (row-major) order. It is how
// the tests reach the entropy coder with what no analysis of a picture
// produces.
type coeffs struct {
	geo    coeffImage
	blocks [3][][64]int32
}

// newCoeffs returns geo's image with every coefficient zero.
func newCoeffs(geo coeffImage) *coeffs {
	c := &coeffs{geo: geo}
	for comp := 0; comp < geo.NumComps; comp++ {
		bw, bh := geo.compBlocks(comp)
		c.blocks[comp] = make([][64]int32, bw*bh)
	}
	return c
}

// sealed returns a scratch set to c's geometry and holding its coefficients,
// in zigzag order and sealed: where Encode leaves an analyzed image, ready
// for scratch.encode.
func (c *coeffs) sealed() (*scratch, error) {
	s := new(scratch)
	s.setGeometry(&c.geo)
	for comp := 0; comp < c.geo.NumComps; comp++ {
		for i, nat := range c.blocks[comp] {
			for k, at := range zigzag {
				s.blocks[comp][i][k] = nat[at]
				if nat[at] != 0 {
					s.lastNZ[comp][i] = uint8(k)
				}
			}
		}
	}
	return s, s.seal()
}

// decoded decodes a stream into a scratch of its own.
func decoded(data []byte) (*scratch, error) {
	s := new(scratch)
	return s, s.decode(data)
}

// sameCoeffs reports how two scratches' images differ, or nil: in geometry,
// in a quantization table the image uses or in a coefficient.
func sameCoeffs(got, want *scratch) error {
	g, w := got.geo, want.geo
	if g.NumComps == 1 {
		g.Quant[1], w.Quant[1] = [64]uint16{}, [64]uint16{} // unused
	}
	if g != w {
		return fmt.Errorf("geometry %+v, want %+v", g, w)
	}
	for c := 0; c < g.NumComps; c++ {
		if !slices.Equal(got.blocks[c], want.blocks[c]) {
			return fmt.Errorf("component %d: coefficients differ", c)
		}
	}
	return nil
}

// randomCoeffs builds a structurally valid image with arbitrary coefficient
// contents — the adversarial input for entropy-coding round-trips (real
// images never exercise extreme coefficient patterns like saturated
// high-frequency bands or alternating signs).
func randomCoeffs(rng *rand.Rand) *coeffs {
	geo := coeffImage{
		Width:  rng.Intn(56) + 8,
		Height: rng.Intn(56) + 8,
	}
	if rng.Intn(2) == 0 {
		geo.NumComps = 1
	} else {
		geo.NumComps = 3
	}
	geo.Quant[0], geo.Quant[1] = quantTables(rng.Intn(100) + 1)
	ci := newCoeffs(geo)
	for c := 0; c < geo.NumComps; c++ {
		for i := range ci.blocks[c] {
			blk := &ci.blocks[c][i]
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
		s, err := randomCoeffs(rng).sealed()
		if err != nil {
			t.Logf("seed %d: seal: %v", seed, err)
			return false
		}
		for _, opts := range modes {
			data, err := s.encode(opts)
			if err != nil {
				t.Logf("seed %d: encode: %v", seed, err)
				return false
			}
			got, err := decoded(data)
			if err == nil {
				err = sameCoeffs(got, s)
			}
			if err != nil {
				t.Logf("seed %d (progressive=%v): %v", seed, opts.Progressive, err)
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
// identity for arbitrary inputs: the stream comes back byte for byte.
func TestQuickTranscodeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := randomCoeffs(rng).sealed()
		if err != nil {
			return false
		}
		base, err := s.encode(&Options{OptimizeHuffman: true})
		if err != nil {
			return false
		}
		prog, err := Transcode(base, &Options{Progressive: true})
		if err != nil {
			return false
		}
		back, err := Transcode(prog, &Options{OptimizeHuffman: true})
		return err == nil && bytes.Equal(back, base)
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
		s, err := randomCoeffs(rng).sealed()
		if err != nil {
			return false
		}
		data, err := s.encode(&Options{Progressive: true})
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
			if _, err := Decode(trunc); err != nil {
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
	geo := &coeffImage{Width: 16, Height: 8, NumComps: 1}
	for i := range geo.Quant[0] {
		geo.Quant[0][i] = 255
	}
	w := bitWriter{out: appendHeaders(nil, geo, true)}
	oneCodeScan(&w, 0, 16, 16, ScanSpec{Comps: []int{0}, Al: 13}, 2)
	oneCodeScan(&w, 1, 15, 15, ScanSpec{Comps: []int{0}, Ss: 1, Se: 63, Al: 13}, 2*63)
	return append(w.out, 0xFF, mEOI)
}

// refinementPastBand is an 8×8 grayscale progressive stream of three scans:
// DC, an AC scan of the whole band whose one symbol is EOB, and a refinement
// of that band, all zero so far, whose four symbols are (15,1) — fifteen
// zeros passed, then a new coefficient. The first three land at 16, 32 and
// 48; the fourth at 64, past the band.
func refinementPastBand() []byte {
	geo := &coeffImage{Width: 8, Height: 8, NumComps: 1}
	for i := range geo.Quant[0] {
		geo.Quant[0][i] = 1
	}
	w := bitWriter{out: appendHeaders(nil, geo, true)}
	oneCodeScan(&w, 0, 0, 0, ScanSpec{Comps: []int{0}}, 1)
	oneCodeScan(&w, 1, 0x00, 0, ScanSpec{Comps: []int{0}, Ss: 1, Se: 63, Al: 1}, 1)
	oneCodeScan(&w, 1, 0xF1, 1, ScanSpec{Comps: []int{0}, Ss: 1, Se: 63, Ah: 1}, 4)
	return append(w.out, 0xFF, mEOI)
}

// oneCodeScan appends to w a table whose one code, "0", means sym, and a
// scan that repeats it n times, each time with size value bits, all ones.
func oneCodeScan(w *bitWriter, class, sym byte, size uint, spec ScanSpec, n int) {
	w.out = appendSegment(w.out, mDHT, 1+16+1)
	w.out = append(w.out, class<<4, 1)
	w.out = append(append(w.out, make([]byte, 15)...), sym)
	w.out = appendSOS(w.out, spec, class == 0, class == 1)
	for ; n > 0; n-- {
		w.writeBits(1<<size-1, 1+size)
	}
	w.flush()
}

// FuzzDecode feeds arbitrary bytes to the three entry points that parse a
// JPEG stream. Truncated progressive streams are this system's normal
// input, so the seeds are a baseline stream, a progressive one, every scan
// prefix of it with and without its EOI, both streams with a scan's data cut
// short under intact markers, and one whose coefficients overflow the
// inverse DCT; testdata/fuzz adds hostile headers, bit-flipped streams and
// refinementPastBand.
// Any input may be refused. None may panic — an index outside a block or a
// sample plane would — and none may come back with a frame larger than
// checkDims allows, which is what bounds the allocation a header can ask
// for, or with sample planes that do not cover it. And the transcode is
// lossless on whatever it accepts: its output decodes to the input's image,
// sample for sample; and so is the record coder, which codes it beside
// another image with shared tables: both keep their coefficients. A scratch
// remembers tables and a frame is recycled from decode to decode, so neither
// may carry anything over: decoded on a scratch that has just decoded
// another seed, into that seed's frame, the input is refused or accepted as
// on a new scratch, and to the same planes.
func FuzzDecode(f *testing.F) {
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
		if idx, err := IndexScans(data); err == nil {
			for n := 1; n <= len(idx.Scans); n++ {
				if _, err := TruncateToScan(data, idx, n); err != nil {
					t.Fatalf("scan prefix %d of an indexed stream: %v", n, err)
				}
			}
		}
		img, err := Decode(data)
		fresh := new(scratch)
		ferr := fresh.decode(data)
		other := prog
		if bytes.Equal(data, prog) {
			other = base
		}
		warm := new(scratch)
		if err := warm.decode(other); err != nil {
			t.Fatal(err)
		}
		used := warm.pixels(nil)
		if werr := warm.decode(data); (werr == nil) != (ferr == nil) {
			t.Fatalf("after another stream: %v; on a new scratch: %v", werr, ferr)
		} else if werr == nil && !reflect.DeepEqual(warm.pixels(used), fresh.pixels(nil)) {
			t.Fatal("after another stream, into its frame, the image differs from a new scratch's")
		}
		if err == nil {
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
		out, terr := Transcode(data, &Options{Progressive: true})
		if terr != nil {
			return
		}
		if err != nil {
			t.Fatalf("Transcode accepts what Decode refuses: %v", err)
		}
		got, err := Decode(out)
		if err != nil {
			t.Fatalf("Decode refuses the transcode's output: %v", err)
		}
		if err := sameImage(got, img); err != nil {
			t.Fatalf("transcode changed the image: %v", err)
		}
		// Coded as a record beside another image, with the tables they
		// share, each of the two keeps its coefficients.
		inputs := [][]byte{data, base}
		rec, err := new(RecordCoder).Transcode(inputs)
		if err != nil {
			t.Fatalf("RecordCoder refuses what Transcode accepts: %v", err)
		}
		for i, stream := range recordStreams(rec) {
			got, err := decoded(stream)
			if err != nil {
				t.Fatalf("record image %d does not decode: %v", i, err)
			}
			want, _ := decoded(inputs[i])
			if err := sameCoeffs(got, want); err != nil {
				t.Fatalf("record image %d: %v", i, err)
			}
		}
	})
}
