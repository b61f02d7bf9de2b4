package jpegc

import (
	"bytes"
	stdjpeg "image/jpeg"
	"math/rand"
	"testing"
)

// benchInput is shaped like the repository benchmark's input (bench-v1):
// 128×128, quality 92, 4:2:0, baseline with the standard tables.
func benchInput(tb testing.TB) []byte {
	tb.Helper()
	data, err := Encode(testImage(128, 128, 7), &Options{Quality: 92, Subsample420: true})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

var benchSink int

func BenchmarkTranscode(b *testing.B) {
	in := benchInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		out, err := Transcode(in, &Options{Progressive: true})
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(out)
	}
}

// BenchmarkDecode is the read path's cost per image at three points of the
// default scan script — all ten scans, five, two — each beside image/jpeg on
// the same bytes.
func BenchmarkDecode(b *testing.B) {
	prog, err := Transcode(benchInput(b), &Options{Progressive: true})
	if err != nil {
		b.Fatal(err)
	}
	prefixes := scanPrefixes(b, prog)
	for _, p := range []struct {
		name  string
		scans int
	}{{"full", len(prefixes)}, {"q5", 5}, {"q2", 2}} {
		stream := prefixes[p.scans-1]
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				img, err := Decode(stream)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += img.Bounds().Dx()
			}
		})
		b.Run(p.name+"/stdlib", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				img, err := stdjpeg.Decode(bytes.NewReader(stream))
				if err != nil {
					b.Fatal(err)
				}
				benchSink += img.Bounds().Dx()
			}
		})
	}
}

// BenchmarkReconstruct is the cost of one block through each body of
// reconstruct, for the three shapes a decode is made of: a full-quality luma
// block (34 of the 63 AC terms, as in bench-v1), the same block as a
// five-scan prefix leaves it (every term cut to a multiple of 4), and a
// block with only its DC term, which neither body transforms.
func BenchmarkReconstruct(b *testing.B) {
	var dense, q5, dc block
	rng := rand.New(rand.NewSource(23))
	for _, k := range rng.Perm(63)[:34] {
		dense[1+k] = int32(1+rng.Intn(1+96/(2+k))) * int32(1-2*rng.Intn(2))
	}
	dense[0], dense[63] = 400, 1
	for k, v := range dense {
		q5[k] = v / 4 * 4
	}
	dc[0] = 400
	dst := make([]byte, 8*128)
	defer func(was bool) { useAVX2 = was }(useAVX2)
	for _, p := range idctPaths {
		for _, shape := range []struct {
			name string
			blk  *block
		}{{"dense", &dense}, {"q5", &q5}, {"dc", &dc}} {
			last := 63
			for last > 0 && shape.blk[last] == 0 {
				last--
			}
			b.Run(shape.name+"/"+p.name, func(b *testing.B) {
				if p.kernel && !haveAVX2 {
					b.Skip("no AVX2 on this processor")
				}
				useAVX2 = p.kernel
				q := multipliers(&stdLumaQuant)
				for i := 0; i < b.N; i++ {
					reconstruct(shape.blk, last, &q, dst[i%120:], 128)
				}
			})
		}
	}
}
