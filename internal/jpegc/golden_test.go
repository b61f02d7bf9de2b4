package jpegc

import (
	"crypto/sha256"
	"encoding/hex"
	"image"
	"math/rand"
	"testing"
)

// goldenInputs are the inputs whose encoded bytes are pinned, each as the
// encoder of one in a given entropy-coding mode: every mode of each, and both
// transcode directions. The hashes were generated at the commit before the
// entropy coder was rewritten (one-walk token encoder, table-driven decoder)
// and must never change with it: the scan script, the optimal tables and
// their tie-breaks, the stuffing and the padding are all part of what a
// stored dataset's bytes_per_image rests on.
func goldenInputs(t *testing.T) map[string]func(mode Options) ([]byte, error) {
	t.Helper()
	// A picture goes through Encode at its quality and sampling; coefficients
	// no picture analyzes to are sealed into a scratch and encoded from there,
	// as Encode encodes what it analyzed.
	picture := func(img image.Image, opts Options) func(Options) ([]byte, error) {
		return func(mode Options) ([]byte, error) {
			mode.Quality, mode.Subsample420 = opts.Quality, opts.Subsample420
			return Encode(img, &mode)
		}
	}
	coefficients := func(c *coeffs) func(Options) ([]byte, error) {
		s, err := c.sealed()
		if err != nil {
			t.Fatal(err)
		}
		return func(mode Options) ([]byte, error) { return s.encode(&mode) }
	}
	in := map[string]func(Options) ([]byte, error){
		"gray-31x17":  picture(testGray(31, 17, 101), Options{Quality: 85}),
		"444-64x64":   picture(testImage(64, 64, 102), Options{Quality: 80}),
		"420-66x50":   picture(testImage(66, 50, 103), Options{Quality: 75, Subsample420: true}),
		"420-128x128": picture(testImage(128, 128, 104), Options{Quality: 92, Subsample420: true}),
	}
	// Arbitrary coefficient contents: saturated magnitudes, dense small
	// values, empty blocks — patterns photographs never produce.
	for seed := int64(1); seed <= 6; seed++ {
		in["random-"+string(rune('0'+seed))] = coefficients(randomCoeffs(rand.New(rand.NewSource(seed))))
	}
	gray50 := coeffImage{NumComps: 1}
	gray50.Quant[0], _ = quantTables(50)
	// Every AC coefficient already significant before the refinement
	// scans: 63 correction bits per block and never a new coefficient, so
	// the EOB run's buffered bits cross maxCorrBits and force a flush.
	gray50.Width, gray50.Height = 64, 64
	corr := newCoeffs(gray50)
	for i := range corr.blocks[0] {
		blk := &corr.blocks[0][i]
		for k := 1; k < 64; k++ {
			blk[k] = int32(8 + (i+k)%8)
			if (i+k)%3 == 0 {
				blk[k] = -blk[k]
			}
		}
	}
	in["corrbits-64x64"] = coefficients(corr)
	// More empty blocks than one EOB run can count (0x7FFF).
	gray50.Width, gray50.Height = 1456, 1456
	empty := newCoeffs(gray50)
	empty.blocks[0][5][0] = 77
	empty.blocks[0][33000][9] = -3
	in["eobrun-1456x1456"] = coefficients(empty)
	return in
}

var goldenModes = []struct {
	name string
	opts Options
}{
	{"baseline", Options{}},
	{"optimized", Options{OptimizeHuffman: true}},
	{"progressive", Options{Progressive: true}},
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// goldenStreams computes name → SHA-256 for every pinned output.
func goldenStreams(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for name, encode := range goldenInputs(t) {
		streams := make(map[string][]byte)
		for _, m := range goldenModes {
			data, err := encode(m.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m.name, err)
			}
			streams[m.name] = data
			out[name+"/"+m.name] = sha(data)
		}
		// Transcode, both directions, must reproduce the direct encoding
		// byte for byte, so it is held to the same pinned hash.
		for _, tc := range []struct{ from, to string }{
			{"baseline", "progressive"},
			{"optimized", "progressive"},
			{"progressive", "optimized"},
			{"progressive", "baseline"},
		} {
			var opts Options
			for _, m := range goldenModes {
				if m.name == tc.to {
					opts = m.opts
				}
			}
			data, err := Transcode(streams[tc.from], &opts)
			if err != nil {
				t.Fatalf("%s: transcode %s→%s: %v", name, tc.from, tc.to, err)
			}
			if got := sha(data); got != out[name+"/"+tc.to] {
				t.Errorf("%s: transcode %s→%s is not the direct %s encoding", name, tc.from, tc.to, tc.to)
			}
		}
	}
	return out
}

// TestGoldenStreams runs once per body of the inverse transform: the encoder
// never reaches it, and selecting one must not move an encoded byte.
func TestGoldenStreams(t *testing.T) {
	eachIDCTPath(t, testGoldenStreams)
}

func testGoldenStreams(t *testing.T) {
	got := goldenStreams(t)
	if len(got) != len(goldenSHA256) {
		t.Errorf("computed %d hashes, %d are pinned", len(got), len(goldenSHA256))
	}
	for name, want := range goldenSHA256 {
		if got[name] != want {
			t.Errorf("%s: sha256 %s, pinned %s", name, got[name], want)
		}
	}
}
