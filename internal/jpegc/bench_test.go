package jpegc

import (
	"bytes"
	stdjpeg "image/jpeg"
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

func BenchmarkDecodeCoeffs(b *testing.B) {
	in := benchInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ci, err := DecodeCoeffs(in)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += ci.Width
	}
}

func BenchmarkEncodeCoeffsProgressive(b *testing.B) {
	ci, err := DecodeCoeffs(benchInput(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := EncodeCoeffs(ci, &Options{Progressive: true})
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
