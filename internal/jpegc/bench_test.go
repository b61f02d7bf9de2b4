package jpegc

import "testing"

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
