package core

import (
	"bytes"
	"image"
	"runtime"
	"testing"

	"repro/internal/jpegc"
	"repro/internal/synth"
)

// benchRecord is a record shaped like the repository benchmark's (bench-v1):
// 32 synth.ImageNet images at 128×128, baseline at quality 92 with 4:2:0
// chroma, with every sample's stream at scan groups 5 and all, reassembled.
func benchRecord(b *testing.B) (q5, full [][]byte) {
	p := synth.ImageNet
	p.ImageSize = 128
	p.NumImages = 40 // synth keeps four fifths as the train split
	ds, err := synth.Generate(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	var samples []Sample
	for _, s := range ds.Train[:32] {
		data, err := jpegc.Encode(s.Img, &jpegc.Options{Quality: 92, Subsample420: true})
		if err != nil {
			b.Fatal(err)
		}
		samples = append(samples, Sample{ID: int64(s.ID), Label: int64(s.Label), JPEG: data})
	}
	var buf bytes.Buffer
	meta, err := WriteRecord(&buf, samples)
	if err != nil {
		b.Fatal(err)
	}
	for i := range meta.Samples {
		for _, g := range []struct {
			to    *[][]byte
			group int
		}{{&q5, 5}, {&full, meta.NumGroups}} {
			stream, err := meta.SampleJPEG(buf.Bytes(), i, g.group)
			if err != nil {
				b.Fatal(err)
			}
			*g.to = append(*g.to, stream)
		}
	}
	return q5, full
}

// BenchmarkDecodeRecord decodes the 32 samples of one record in order, as a
// Loader's decode worker takes a record's runs: they share their Huffman
// table definitions and geometry, which jpegc.BenchmarkDecode, one stream
// over and over, cannot tell apart from a warm cache. Each quality is decoded
// into new frames, as Scan and ReadRecord decode, and into frames handed
// back, as Loader.Epoch decodes. It reports µs and bytes allocated per image.
func BenchmarkDecodeRecord(b *testing.B) {
	q5, full := benchRecord(b)
	for _, q := range []struct {
		name    string
		streams [][]byte
	}{{"q5", q5}, {"full", full}} {
		for _, reuse := range []bool{false, true} {
			name := q.name + "/frames=new"
			if reuse {
				name = q.name + "/frames=reused"
			}
			b.Run(name, func(b *testing.B) {
				frames := make([]image.Image, len(q.streams))
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for range b.N {
					for i, stream := range q.streams {
						var into image.Image
						if reuse {
							into = frames[i]
						}
						img, err := jpegc.DecodeInto(stream, into)
						if err != nil {
							b.Fatal(err)
						}
						frames[i] = img
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				images := float64(b.N * len(q.streams))
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/images, "µs/image")
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/images, "B/image")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}
