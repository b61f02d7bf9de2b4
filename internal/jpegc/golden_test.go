package jpegc

import (
	"crypto/sha256"
	"encoding/hex"
	"image"
	"math/rand"
	"testing"
)

// goldenInputs are the images whose encoded bytes are pinned: every
// entropy-coding mode of each (Encode is Analyze followed by EncodeCoeffs, so
// hashing EncodeCoeffs of an analyzed image pins Encode) and both transcode
// directions. The hashes were generated at the commit
// before the entropy coder was rewritten (one-walk token encoder,
// table-driven decoder) and must never change with it: the scan script, the
// optimal tables and their tie-breaks, the stuffing and the padding are all
// part of what a stored dataset's bytes_per_image rests on.
func goldenInputs(t *testing.T) map[string]*CoeffImage {
	t.Helper()
	analyze := func(img image.Image, opts *Options) *CoeffImage {
		ci, err := Analyze(img, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ci
	}
	in := map[string]*CoeffImage{
		"gray-31x17":  analyze(testGray(31, 17, 101), &Options{Quality: 85}),
		"444-64x64":   analyze(testImage(64, 64, 102), &Options{Quality: 80}),
		"420-66x50":   analyze(testImage(66, 50, 103), &Options{Quality: 75, Subsample420: true}),
		"420-128x128": analyze(testImage(128, 128, 104), &Options{Quality: 92, Subsample420: true}),
	}
	// Arbitrary coefficient contents: saturated magnitudes, dense small
	// values, empty blocks — patterns photographs never produce.
	for seed := int64(1); seed <= 6; seed++ {
		in["random-"+string(rune('0'+seed))] = randomCoeffImage(rand.New(rand.NewSource(seed)))
	}
	// Every AC coefficient already significant before the refinement
	// scans: 63 correction bits per block and never a new coefficient, so
	// the EOB run's buffered bits cross maxCorrBits and force a flush.
	corr := &CoeffImage{Width: 64, Height: 64, NumComps: 1}
	corr.Quant[0], _ = QuantTables(50)
	corr.Blocks[0] = make([]Block, 64)
	for i := range corr.Blocks[0] {
		for k := 1; k < 64; k++ {
			corr.Blocks[0][i][k] = int32(8 + (i+k)%8)
			if (i+k)%3 == 0 {
				corr.Blocks[0][i][k] = -corr.Blocks[0][i][k]
			}
		}
	}
	in["corrbits-64x64"] = corr
	// More empty blocks than one EOB run can count (0x7FFF).
	empty := &CoeffImage{Width: 1456, Height: 1456, NumComps: 1}
	empty.Quant[0], _ = QuantTables(50)
	empty.Blocks[0] = make([]Block, 182*182)
	empty.Blocks[0][5][0] = 77
	empty.Blocks[0][33000][9] = -3
	in["eobrun-1456x1456"] = empty
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
	for name, ci := range goldenInputs(t) {
		streams := make(map[string][]byte)
		for _, m := range goldenModes {
			opts := m.opts
			data, err := EncodeCoeffs(ci, &opts)
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
