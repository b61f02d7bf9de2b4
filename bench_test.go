package repro

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/iosim"
	"repro/internal/jpegc"
	"repro/internal/kvstore"
	"repro/internal/loader"
	"repro/internal/nn"
	"repro/internal/recordio"
	"repro/internal/synth"
	"repro/internal/train"
)

// --- Record kernels ---------------------------------------------------------

// The paper's tables and figures are not benchmarked here: go test runs
// every one at a tiny scale (internal/experiments'
// TestAllExperimentsTinyScale), and cmd/experiments runs them at full
// scale. The codec's benchmarks live beside it in internal/jpegc.

func benchImages(b *testing.B, n int) [][]byte {
	b.Helper()
	p := synth.Cars
	p.NumImages = 2 * n // 80/20 split: ensure at least n train images
	p.ImageSize = 64
	ds, err := synth.Generate(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	if len(ds.Train) < n {
		b.Fatalf("only %d train images", len(ds.Train))
	}
	var out [][]byte
	for _, s := range ds.Train[:n] {
		data, err := jpegc.Encode(s.Img, &jpegc.Options{Quality: 84})
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

func BenchmarkPCRRecordWrite(b *testing.B) {
	imgs := benchImages(b, 16)
	samples := make([]core.Sample, len(imgs))
	for i, d := range imgs {
		samples[i] = core.Sample{ID: int64(i), Label: int64(i % 4), JPEG: d}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := core.WriteRecord(&buf, samples); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPCRSampleReassembly(b *testing.B) {
	imgs := benchImages(b, 16)
	samples := make([]core.Sample, len(imgs))
	for i, d := range imgs {
		samples[i] = core.Sample{ID: int64(i), JPEG: d}
	}
	var buf bytes.Buffer
	meta, err := core.WriteRecord(&buf, samples)
	if err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := range meta.Samples {
			if _, err := meta.SampleJPEG(data, s, 2); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablations (DESIGN.md §5) ------------------------------------------------

// BenchmarkAblationLayout compares the PCR scan-group layout against
// per-image progressive files for an "entire dataset at scan group 2" read
// on a simulated HDD: PCR reads one sequential prefix per record; the
// file-per-image layout pays a seek per image.
func BenchmarkAblationLayout(b *testing.B) {
	p := synth.Cars
	p.NumImages = 64
	p.ImageSize = 64
	ds, err := synth.Generate(p, 3)
	if err != nil {
		b.Fatal(err)
	}
	set, err := train.BuildPCRSet(ds, 16)
	if err != nil {
		b.Fatal(err)
	}
	rbPCR, err := set.RecordBytesAtGroup(2)
	if err != nil {
		b.Fatal(err)
	}
	sizes := set.SampleGroupLens()

	b.Run("pcr-scan-groups", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dev := iosim.NewDevice(iosim.HDD7200)
			var t float64
			for _, rb := range rbPCR {
				t = dev.Read(rb, t)
			}
			b.ReportMetric(t*1e3, "simms/epoch")
		}
	})
	b.Run("file-per-image", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dev := iosim.NewDevice(iosim.HDD7200)
			var t float64
			for _, s := range sizes {
				// A per-image progressive file still needs its header plus
				// scans 1-2, but every image is its own random read.
				t = dev.Read(s.HeaderLen+s.GroupLens[0]+s.GroupLens[1], t)
			}
			b.ReportMetric(t*1e3, "simms/epoch")
		}
	})
}

// BenchmarkAblationHuffman measures what Huffman tables cost in bytes per
// image on one 32-image record's worth of images: the spec's default tables
// and per-image optimal tables on baseline streams, and a PCR record, whose
// images share one header and one optimal table set per scan — its file
// size, metadata and all, over its images.
func BenchmarkAblationHuffman(b *testing.B) {
	p := synth.Cars
	p.NumImages = 40 // 80/20 split: 32 train images
	p.ImageSize = 64
	ds, err := synth.Generate(p, 5)
	if err != nil {
		b.Fatal(err)
	}
	imgs := ds.Train[:32]
	for _, mode := range []struct {
		name string
		opts *jpegc.Options
	}{
		{"default-tables", &jpegc.Options{Quality: 84}},
		{"optimized-tables", &jpegc.Options{Quality: 84, OptimizeHuffman: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var bytesOut int64
			for i := 0; i < b.N; i++ {
				bytesOut = 0
				for _, s := range imgs {
					data, err := jpegc.Encode(s.Img, mode.opts)
					if err != nil {
						b.Fatal(err)
					}
					bytesOut += int64(len(data))
				}
			}
			b.ReportMetric(float64(bytesOut)/float64(len(imgs)), "bytes/img")
		})
	}
	b.Run("per-record-tables", func(b *testing.B) {
		samples := make([]core.Sample, len(imgs))
		for i, s := range imgs {
			data, err := jpegc.Encode(s.Img, &jpegc.Options{Quality: 84})
			if err != nil {
				b.Fatal(err)
			}
			samples[i] = core.Sample{ID: int64(i), JPEG: data}
		}
		var out countingWriter
		for i := 0; i < b.N; i++ {
			out = 0
			if _, err := core.WriteRecord(&out, samples); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(out)/float64(len(imgs)), "bytes/img")
	})
}

// countingWriter counts the bytes written to it.
type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

// BenchmarkAblationRecordSize sweeps images-per-record: bigger records
// amortize seeks but coarsen the shuffle granularity.
func BenchmarkAblationRecordSize(b *testing.B) {
	const images = 256
	const bytesPerImage = 100e3
	for _, perRecord := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("rec%d", perRecord), func(b *testing.B) {
			n := images / perRecord
			rb := make([]int64, n)
			ipr := make([]int, n)
			for i := range rb {
				rb[i] = int64(perRecord * bytesPerImage)
				ipr[i] = perRecord
			}
			for i := 0; i < b.N; i++ {
				cluster, err := iosim.NewCluster(iosim.HDD7200, 1)
				if err != nil {
					b.Fatal(err)
				}
				res, err := loader.ReadOnlyRate(loader.Config{
					Cluster: cluster, Threads: 4,
					RecordBytes: rb, ImagesPerRecord: ipr,
					Passes: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.ImagesPerSec, "img/s")
			}
		})
	}
}

// BenchmarkAblationMetadata compares opening the kvstore metadata database
// — loading its 512 record entries — against building the same entries as a
// flat in-memory map.
func BenchmarkAblationMetadata(b *testing.B) {
	dir := b.TempDir()
	store, err := kvstore.Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	const n = 512
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("record/%05d", i))
		val := make([]byte, 128)
		if err := store.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("kvstore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kv, err := kvstore.Load(dir)
			if err != nil {
				b.Fatal(err)
			}
			if len(kv) != n {
				b.Fatalf("loaded %d entries, want %d", len(kv), n)
			}
		}
	})
	b.Run("flat-map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			flat := make(map[string][]byte, n)
			for j := 0; j < n; j++ {
				flat[fmt.Sprintf("record/%05d", j)] = make([]byte, 128)
			}
			if len(flat) != n {
				b.Fatal("missing")
			}
		}
	})
}

// BenchmarkAblationCache compares a PCR-aware prefix cache (delta upgrades)
// against a conventional whole-record cache when a training job alternates
// scan groups: the PCR cache fetches only upgrade deltas.
func BenchmarkAblationCache(b *testing.B) {
	const records = 64
	prefixes := map[int]int64{2: 20e3, 5: 60e3, 10: 100e3}
	fetchBytes := int64(0)
	fetch := func(record int, offset, length int64) ([]byte, error) {
		fetchBytes += length
		return make([]byte, length), nil
	}
	b.Run("pcr-prefix-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fetchBytes = 0
			c, err := cache.New(records*prefixes[10]*2, fetch)
			if err != nil {
				b.Fatal(err)
			}
			for _, g := range []int{2, 5, 10, 2} {
				for r := 0; r < records; r++ {
					if _, err := c.Get(r, prefixes[g]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(fetchBytes)/1e6, "MB-fetched")
		}
	})
	b.Run("whole-record-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fetchBytes = 0
			cached := map[int]bool{}
			for _, g := range []int{2, 5, 10, 2} {
				for r := 0; r < records; r++ {
					// A conventional cache keyed on full records must
					// refetch whenever the stored quality differs.
					if !cached[r] || g == 10 {
						fetchBytes += prefixes[g]
						cached[r] = g == 10
					}
				}
			}
			b.ReportMetric(float64(fetchBytes)/1e6, "MB-fetched")
		}
	})
}

// BenchmarkTFRecordFraming measures the baseline record format's framing
// throughput for context alongside the PCR writer.
func BenchmarkTFRecordFraming(b *testing.B) {
	payload := make([]byte, 100<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := recordio.NewWriter(&buf)
		if err := w.Write(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := recordio.NewReader(&buf, int64(buf.Len())).Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLPEpoch measures the SGD substrate's step rate.
func BenchmarkMLPEpoch(b *testing.B) {
	m, err := nn.ResNetLike.Build(train.FeatureLen, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	batch := nn.Batch{}
	for i := 0; i < 32; i++ {
		x := make([]float64, train.FeatureLen)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		batch.X = append(batch.X, x)
		batch.Y = append(batch.Y, i%10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _, _, err := m.Gradient(batch)
		if err != nil {
			b.Fatal(err)
		}
		m.Step(g, 0.01, 0.9)
	}
}
