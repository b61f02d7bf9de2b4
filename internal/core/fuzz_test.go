package core

import (
	"bytes"
	"testing"

	"repro/internal/jpegc"
	"repro/internal/synth"
)

// TestRecord420 exercises the PCR path with 4:2:0-subsampled inputs — the
// sampling real photographic datasets use.
func TestRecord420(t *testing.T) {
	p := synth.Cars
	p.NumImages = 8
	p.ImageSize = 52 // odd block geometry + MCU padding
	ds, err := synth.Generate(p, 19)
	if err != nil {
		t.Fatal(err)
	}
	var samples []Sample
	for _, s := range ds.Train[:6] {
		data, err := jpegc.Encode(s.Img, &jpegc.Options{Quality: 84, Subsample420: true})
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, Sample{ID: int64(s.ID), Label: int64(s.Label), JPEG: data})
	}
	var buf bytes.Buffer
	meta, err := WriteRecord(&buf, samples)
	if err != nil {
		t.Fatal(err)
	}
	if meta.NumGroups != 10 {
		t.Fatalf("NumGroups = %d", meta.NumGroups)
	}
	data := buf.Bytes()
	for g := 1; g <= meta.NumGroups; g++ {
		need, err := meta.PrefixLen(g)
		if err != nil {
			t.Fatal(err)
		}
		for i := range meta.Samples {
			img, err := meta.DecodeSample(data[:need], i, g)
			if err != nil {
				t.Fatalf("group %d sample %d: %v", g, i, err)
			}
			if img.Bounds().Dx() != 52 || img.Bounds().Dy() != 52 {
				t.Fatalf("bad bounds %v", img.Bounds())
			}
		}
	}
	// Full read must reproduce the original coefficients.
	for i, s := range samples {
		stream, err := meta.SampleJPEG(data, i, meta.NumGroups)
		if err != nil {
			t.Fatal(err)
		}
		got, err := jpegc.DecodeCoeffs(stream)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := jpegc.DecodeCoeffs(s.JPEG)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(orig) {
			t.Fatalf("sample %d: 4:2:0 PCR round trip not lossless", i)
		}
	}
}

// FuzzParseRecordMeta feeds arbitrary bytes to the record parser and to
// the calls that turn a parsed record back into JPEG streams — the bytes a
// Loader reads from a store it does not control, parsed on a goroutine no
// caller can recover for. The seeds are a record of three samples whole, cut
// inside its metadata, cut inside its body and respelled (group count last,
// a sample's lengths split over two fields); testdata/fuzz adds records
// that spell huge, negative and overflowing lengths and bit-flipped records
// that still parse. Any input may be refused. None may panic, none may size
// an allocation by a number the bytes merely spell, and a stream that comes
// back is made of bytes that were there.
func FuzzParseRecordMeta(f *testing.F) {
	var buf bytes.Buffer
	meta, err := WriteRecord(&buf, buildSamples(f, 3))
	if err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:meta.BodyStart/2])
	f.Add(valid[:(meta.BodyStart+int64(len(valid)))/2])
	// The same record spelled as no writer here does: the group count after
	// the samples it sizes, and each sample's lengths in two fields.
	f.Add(respell(valid, meta, true, false))
	f.Add(respell(valid, meta, false, true))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseRecordMeta(data)
		if err != nil {
			return
		}
		// The offset tables hold a word per sample and group, and every one
		// of those was a byte of the metadata section.
		if words := m.NumGroups * len(m.Samples); words <= 0 || int64(words) > m.BodyStart {
			t.Fatalf("%d groups × %d samples parsed from a %d-byte metadata section", m.NumGroups, len(m.Samples), m.BodyStart)
		}
		for g := 0; g <= m.NumGroups; g++ {
			need, err := m.PrefixLen(g)
			if err != nil || need < m.BodyStart {
				t.Fatalf("PrefixLen(%d) of a parsed record = %d, %v", g, need, err)
			}
			prefix := data[:min(need, int64(len(data)))]
			for i := range m.Samples {
				stream, err := m.SampleJPEG(prefix, i, g)
				if err != nil {
					continue // group 0, or a body cut short
				}
				if limit := len(m.Samples[i].Header) + len(prefix) + 2; len(stream) > limit {
					t.Fatalf("sample %d at group %d is %d bytes from a %d-byte prefix", i, g, len(stream), len(prefix))
				}
			}
		}
	})
}
