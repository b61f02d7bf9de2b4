package jpegc

import (
	"bytes"
	"image"
	"image/color"
	"math"
	"math/rand"
	"testing"
)

// testImage produces a deterministic color image mixing smooth gradients,
// sinusoidal texture, and noise — enough spectral variety to exercise every
// scan of the progressive script.
func testImage(w, h int, seed int64) *image.RGBA {
	rng := rand.New(rand.NewSource(seed))
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			fx, fy := float64(x), float64(y)
			r := 128 + 100*math.Sin(fx/9)*math.Cos(fy/13)
			g := 128 + 80*math.Sin((fx+fy)/7)
			b := float64(x*255/w+y*255/h) / 2
			n := rng.Float64()*30 - 15
			img.Set(x, y, color.RGBA{clamp8(r + n), clamp8(g + n), clamp8(b + n), 255})
		}
	}
	return img
}

func testGray(w, h int, seed int64) *image.Gray {
	rng := rand.New(rand.NewSource(seed))
	img := image.NewGray(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 128 + 90*math.Sin(float64(x)/5)*math.Cos(float64(y)/8) + rng.Float64()*20 - 10
			img.SetGray(x, y, color.Gray{Y: clamp8(v)})
		}
	}
	return img
}

func clamp8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// TestDCTBasisResponse checks fdct against its closed form: the transform of
// the (u,v) cosine basis function with amplitude A is 4·A·s(u)·s(v) at
// [v][u], s(0)=√2 and s(k>0)=1, and zero everywhere else. (0,0) is the
// constant block, whose DC term is 8·A. fdct is linear, so the 64 responses
// pin it completely.
func TestDCTBasisResponse(t *testing.T) {
	const amp = 100
	s := func(k int) float64 {
		if k == 0 {
			return math.Sqrt2
		}
		return 1
	}
	for v := 0; v < 8; v++ {
		for u := 0; u < 8; u++ {
			var b [64]float64
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					b[y*8+x] = amp * math.Cos(float64(2*x+1)*float64(u)*math.Pi/16) *
						math.Cos(float64(2*y+1)*float64(v)*math.Pi/16)
				}
			}
			fdct(&b)
			for i, got := range b {
				want := 0.0
				if i == v*8+u {
					want = 4 * amp * s(u) * s(v)
				}
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("basis (%d,%d): coefficient %d = %v, want %v", u, v, i, got, want)
				}
			}
		}
	}
}

func TestQuantTablesMonotone(t *testing.T) {
	prev, _ := quantTables(10)
	for q := 20; q <= 100; q += 10 {
		cur, _ := quantTables(q)
		for i := range cur {
			if cur[i] > prev[i] {
				t.Fatalf("quality %d: quant[%d]=%d exceeds lower-quality value %d", q, i, cur[i], prev[i])
			}
		}
		prev = cur
	}
	q100, _ := quantTables(100)
	for i, v := range q100 {
		if v != 1 {
			t.Errorf("quality 100: quant[%d]=%d, want 1", i, v)
		}
	}
}

func TestBitWriterReaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var w bitWriter
	type item struct {
		v uint32
		n uint
	}
	var items []item
	for i := 0; i < 2000; i++ {
		n := uint(rng.Intn(16) + 1)
		v := uint32(rng.Intn(1 << n))
		items = append(items, item{v, n})
		w.writeBits(v, n)
	}
	w.flush()
	if end := scanEnd(w.out, 0); end != len(w.out) {
		t.Fatalf("written bits hold a marker at %d", end)
	}
	r := &bitReader{data: w.out}
	for i, it := range items {
		if got := r.readBits(it.n); got != it.v {
			t.Fatalf("item %d: read %d, want %d", i, got, it.v)
		}
	}
	if r.overrun() {
		t.Error("reading back what was written overran it")
	}
}

// TestScanEndStopsAtMarker: an entropy-coded segment ends at the first 0xFF
// that is neither stuffed nor a fill byte, and the bit reader, held to that
// range, drops the stuffing.
func TestScanEndStopsAtMarker(t *testing.T) {
	for _, tc := range []struct {
		data    []byte
		end     int
		payload []byte
	}{
		{[]byte{0x12, 0xFF, 0x00, 0x34, 0xFF, 0xD9}, 4, []byte{0x12, 0xFF, 0x34}},
		{[]byte{0x12, 0xFF, 0xFF, 0x00, 0x34, 0xFF, 0xFF, 0xDA, 0x01}, 6, []byte{0x12, 0xFF, 0x34}}, // fill bytes
		{[]byte{0x12, 0x34, 0xFF}, 2, []byte{0x12, 0x34}},                                           // lone trailing 0xFF
		{[]byte{0x12, 0x34}, 2, []byte{0x12, 0x34}},                                                 // no marker at all
		{[]byte{0xFF, 0xD9}, 0, nil},
	} {
		end := scanEnd(tc.data, 0)
		if end != tc.end {
			t.Errorf("% x: scanEnd = %d, want %d", tc.data, end, tc.end)
			continue
		}
		r := &bitReader{data: tc.data[:end]}
		var got []byte
		for range tc.payload {
			got = append(got, byte(r.readBits(8)))
		}
		if !bytes.Equal(got, tc.payload) || r.overrun() {
			t.Errorf("% x: payload = % x (overrun %v), want % x", tc.data, got, r.overrun(), tc.payload)
		}
		if r.readBits(1); !r.overrun() {
			t.Errorf("% x: a bit past the payload is not an overrun", tc.data)
		}
	}
}

func TestHuffmanEncodeDecodeRoundTrip(t *testing.T) {
	for _, spec := range []*huffSpec{&stdDCLuma, &stdDCChroma, &stdACLuma, &stdACChroma} {
		var enc huffEncoder
		if err := enc.build(spec); err != nil {
			t.Fatal(err)
		}
		var dec huffDecoder
		dec.build(&spec.bits, spec.vals)
		var w bitWriter
		for _, sym := range spec.vals {
			w.writeBits(enc.lookup(sym))
		}
		w.flush()
		r := &bitReader{data: w.out}
		for i, want := range spec.vals {
			got, err := dec.decode(r)
			if err != nil {
				t.Fatalf("symbol %d: %v", i, err)
			}
			if got != want {
				t.Fatalf("symbol %d: got %#x, want %#x", i, got, want)
			}
		}
	}
}

func TestHuffmanOptimizerValidAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		var f freqCounter
		nsyms := rng.Intn(200) + 1
		seen := map[byte]bool{}
		for i := 0; i < nsyms; i++ {
			s := byte(rng.Intn(256))
			f[s] += int64(rng.Intn(1000) + 1)
			seen[s] = true
		}
		spec := &huffSpec{}
		f.buildOptimal(spec)
		if want := referenceOptimal(&f); spec.bits != want.bits || !bytes.Equal(spec.vals, want.vals) {
			t.Fatalf("trial %d: table differs from the libjpeg procedure's", trial)
		}
		var enc huffEncoder
		if err := enc.build(spec); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Every counted symbol must receive a code.
		for s := range seen {
			if enc[s] == 0 {
				t.Fatalf("trial %d: symbol %#x got no code", trial, s)
			}
		}
		// Kraft inequality must hold strictly (no all-ones code used).
		var kraft float64
		for l := 1; l <= 16; l++ {
			kraft += float64(spec.bits[l-1]) / float64(uint64(1)<<uint(l))
		}
		if kraft > 1 {
			t.Fatalf("trial %d: kraft sum %v > 1", trial, kraft)
		}
		// And a round trip must work.
		var dec huffDecoder
		dec.build(&spec.bits, spec.vals)
		var w bitWriter
		var emitted []byte
		for s := range seen {
			w.writeBits(enc.lookup(s))
			emitted = append(emitted, s)
		}
		w.flush()
		r := &bitReader{data: w.out}
		for i, want := range emitted {
			got, err := dec.decode(r)
			if err != nil || got != want {
				t.Fatalf("trial %d symbol %d: got %#x err %v, want %#x", trial, i, got, err, want)
			}
		}
	}
}

func TestHuffmanOptimizerSingleSymbol(t *testing.T) {
	var f freqCounter
	f[0x42]++
	spec := &huffSpec{}
	f.buildOptimal(spec)
	var enc huffEncoder
	if err := enc.build(spec); err != nil {
		t.Fatal(err)
	}
	if enc[0x42] == 0 {
		t.Fatal("single symbol got no code")
	}
}

func TestMagnitudeExtendInverse(t *testing.T) {
	for v := int32(-2047); v <= 2047; v++ {
		size, bits := magnitude(v)
		if got := extend(bits, size); got != v {
			t.Fatalf("extend(magnitude(%d)) = %d", v, got)
		}
	}
}

func encodings(t *testing.T) map[string]*Options {
	t.Helper()
	return map[string]*Options{
		"baseline":           {Quality: 80},
		"baseline-optimized": {Quality: 80, OptimizeHuffman: true},
		"progressive":        {Quality: 80, Progressive: true},
	}
}

// analyzedRoundTrip does what Encode does — analyze img, seal, encode — and
// checks that the stream decodes to exactly the coefficients sealed, which
// it returns.
func analyzedRoundTrip(t *testing.T, img image.Image, opts *Options) *scratch {
	t.Helper()
	s := new(scratch)
	if err := s.analyze(img, opts); err != nil {
		t.Fatal(err)
	}
	if err := s.seal(); err != nil {
		t.Fatal(err)
	}
	data, err := s.encode(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decoded(data)
	if err == nil {
		err = sameCoeffs(got, s)
	}
	if err != nil {
		t.Fatalf("coefficients changed across encode/decode: %v", err)
	}
	return s
}

func TestCoeffRoundTripColor(t *testing.T) {
	img := testImage(67, 45, 11) // non-multiple-of-8 dimensions on purpose
	for name, opts := range encodings(t) {
		t.Run(name, func(t *testing.T) {
			analyzedRoundTrip(t, img, opts)
		})
	}
}

func TestCoeffRoundTripGray(t *testing.T) {
	img := testGray(40, 56, 5)
	for name, opts := range encodings(t) {
		t.Run(name, func(t *testing.T) {
			if s := analyzedRoundTrip(t, img, opts); s.geo.NumComps != 1 {
				t.Fatalf("NumComps = %d, want 1", s.geo.NumComps)
			}
		})
	}
}

// TestEncodedStreamsDecodeToSource closes the loop on pixels: Decode
// reconstructs, from every kind of stream Encode writes, the source pixels
// to within the loss quality 80 implies (TestDecodeMatchesStdlib has
// image/jpeg accept the same kinds of stream and agree on the samples) —
// including 66×50 at 4:2:0, where MCU padding on both axes must be emitted
// and then cropped away. The bounds are the measured MAE (5.09, 6.17, 3.75
// levels, nearly all of it the ±15 noise of the test images, which quality
// 80 discards) plus a tenth; a misplaced block or a wrong crop costs tens.
func TestEncodedStreamsDecodeToSource(t *testing.T) {
	for _, tc := range []struct {
		name   string
		img    image.Image
		opts   map[string]*Options
		maxMAE float64
	}{
		{"444", testImage(64, 64, 21), encodings(t), 5.6},
		{"420", testImage(66, 50, 23), opts420(), 6.8},
		{"gray", testGray(40, 56, 5), encodings(t), 4.2},
	} {
		img := tc.img
		for name, opts := range tc.opts {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				data, err := Encode(img, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				if got.Bounds() != img.Bounds() {
					t.Fatalf("bounds = %v, want %v", got.Bounds(), img.Bounds())
				}
				if e := meanAbsErr(got, img); e > tc.maxMAE {
					t.Errorf("MAE vs source pixels = %.2f, want <= %v", e, tc.maxMAE)
				}
			})
		}
	}
}

// TestTranscodeLossless: a transcode, either way, writes the stream a direct
// encoding of the same image in the target mode writes, byte for byte.
func TestTranscodeLossless(t *testing.T) {
	img := testImage(80, 60, 31)
	encode := func(opts *Options) []byte {
		t.Helper()
		data, err := Encode(img, opts)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	base := encode(&Options{Quality: 85})
	prog, err := Transcode(base, &Options{Progressive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prog, encode(&Options{Quality: 85, Progressive: true})) {
		t.Fatal("transcode is not lossless")
	}
	// And back again.
	back, err := Transcode(prog, &Options{OptimizeHuffman: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, encode(&Options{Quality: 85, OptimizeHuffman: true})) {
		t.Fatal("round-trip transcode is not lossless")
	}
}

func TestIndexScansProgressive(t *testing.T) {
	img := testImage(64, 48, 41)
	prog, err := Encode(img, &Options{Quality: 80, Progressive: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := IndexScans(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !idx.Progressive {
		t.Error("stream not flagged progressive")
	}
	if len(idx.Scans) != 10 {
		t.Fatalf("scan count = %d, want 10", len(idx.Scans))
	}
	if idx.Width != 64 || idx.Height != 48 || idx.NumComps != 3 {
		t.Errorf("geometry = %dx%d/%d comps", idx.Width, idx.Height, idx.NumComps)
	}
	// Scan byte ranges must tile the stream exactly: header, scans, EOI.
	pos := idx.HeaderLen
	for i, s := range idx.Scans {
		if s.Offset != pos {
			t.Fatalf("scan %d offset %d, want %d", i, s.Offset, pos)
		}
		pos += s.Length
	}
	if pos+2 != len(prog) {
		t.Errorf("scans end at %d, stream has %d bytes (want EOI only after scans)", pos, len(prog))
	}
	// Spec of the first scan must be the interleaved DC scan.
	first := idx.Scans[0].Spec
	if first.Ss != 0 || first.Se != 0 || first.Ah != 0 || len(first.Comps) != 3 {
		t.Errorf("first scan spec = %+v", first)
	}
}

func TestTruncatedPrefixesDecode(t *testing.T) {
	img := testImage(64, 64, 51)
	prog, err := Encode(img, &Options{Quality: 85, Progressive: true})
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
	var prevErr float64 = math.Inf(1)
	for n := 1; n <= len(idx.Scans); n++ {
		trunc, err := TruncateToScan(prog, idx, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(trunc)
		if err != nil {
			t.Fatalf("scan prefix %d: decode: %v", n, err)
		}
		e := meanAbsErr(got, full)
		if n == len(idx.Scans) && e != 0 {
			t.Errorf("full prefix differs from full decode (MAE %v)", e)
		}
		// Mean error must broadly shrink as scans accumulate (allow small
		// non-monotonic wiggle from chroma ordering).
		if e > prevErr+3 {
			t.Errorf("scan prefix %d: MAE %v worse than previous %v", n, e, prevErr)
		}
		if e < prevErr {
			prevErr = e
		}
	}
}

func meanAbsErr(a, b image.Image) float64 {
	ab := a.Bounds()
	var sum float64
	var n int
	for y := 0; y < ab.Dy(); y++ {
		for x := 0; x < ab.Dx(); x++ {
			ar, ag, abl, _ := a.At(x, y).RGBA()
			br, bg, bbl, _ := b.At(x, y).RGBA()
			for _, d := range []int{int(ar>>8) - int(br>>8), int(ag>>8) - int(bg>>8), int(abl>>8) - int(bbl>>8)} {
				if d < 0 {
					d = -d
				}
				sum += float64(d)
				n++
			}
		}
	}
	return sum / float64(n)
}

func TestProgressiveSizeNearBaseline(t *testing.T) {
	// The paper observes progressive size within ~5% of baseline (often
	// smaller). Check we are in that ballpark.
	img := testImage(128, 128, 61)
	base, err := Encode(img, &Options{Quality: 80, OptimizeHuffman: true})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Encode(img, &Options{Quality: 80, Progressive: true})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(prog)) / float64(len(base))
	if ratio > 1.10 || ratio < 0.5 {
		t.Errorf("progressive/baseline size ratio = %.3f (prog %d, base %d)", ratio, len(prog), len(base))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{{1, 2, 3}, nil} {
		if _, err := Decode(data); err == nil {
			t.Errorf("Decode accepted % x", data)
		}
		if _, err := Transcode(data, &Options{Progressive: true}); err == nil {
			t.Errorf("Transcode accepted % x", data)
		}
	}
}

func TestDecodeTruncatedStreamReportsError(t *testing.T) {
	img := testImage(32, 32, 71)
	data, err := Encode(img, &Options{Quality: 75})
	if err != nil {
		t.Fatal(err)
	}
	noEOI := data[:len(data)-2]
	if _, err := Decode(noEOI); err != ErrTruncated {
		t.Errorf("Decode: err = %v, want ErrTruncated", err)
	}
	if _, err := Transcode(noEOI, &Options{Progressive: true}); err != ErrTruncated {
		t.Errorf("Transcode: err = %v, want ErrTruncated", err)
	}
}

func TestQuality100NearLossless(t *testing.T) {
	img := testImage(48, 48, 81)
	data, err := Encode(img, &Options{Quality: 100})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if e := meanAbsErr(got, img); e > 3.5 {
		t.Errorf("quality-100 MAE = %v (color conversion + rounding only)", e)
	}
}
