package core

import (
	"bytes"
	"errors"
	"image"
	"image/draw"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/jpegc"
	"repro/internal/synth"
)

// mixedSamples are baseline samples of every kind a record can mix:
// grayscale, 4:2:0 and 4:4:4 colour, at two sizes and two quantizers.
func mixedSamples(t testing.TB) []Sample {
	t.Helper()
	p := synth.Cars
	p.NumImages = 12
	p.ImageSize = 40
	ds, err := synth.Generate(p, 23)
	if err != nil {
		t.Fatal(err)
	}
	var out []Sample
	for i, s := range ds.Train[:8] {
		var img image.Image = s.Img
		if i%4 == 3 {
			img = img.(interface {
				SubImage(image.Rectangle) image.Image
			}).SubImage(image.Rect(3, 5, 30, 38)) // a second size, off the block grid
		}
		if i%3 == 1 {
			g := image.NewGray(img.Bounds())
			draw.Draw(g, g.Bounds(), img, img.Bounds().Min, draw.Src)
			img = g
		}
		data, err := jpegc.Encode(img, &jpegc.Options{Quality: []int{60, 90}[i%2], Subsample420: i%3 == 0})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Sample{ID: int64(100 + i), Label: int64(i % 3), JPEG: data})
	}
	return out
}

// streams returns every sample's stream at every scan group, by ID.
func streams(t *testing.T, data []byte, meta *RecordMeta) map[int64][][]byte {
	t.Helper()
	out := make(map[int64][][]byte)
	for i, s := range meta.Samples {
		for g := 1; g <= meta.NumGroups; g++ {
			need, err := meta.PrefixLen(g)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := meta.SampleJPEG(data[:need], i, g)
			if err != nil {
				t.Fatalf("sample %d at group %d: %v", i, g, err)
			}
			out[s.ID] = append(out[s.ID], stream)
		}
	}
	return out
}

// TestMixedRecordRoundTrip: a record mixing every kind of image, one group
// per scan and coalesced, decodes every sample at every scan group and
// gives back each one's coefficients at the last; it stores each distinct
// header once.
func TestMixedRecordRoundTrip(t *testing.T) {
	samples := mixedSamples(t)
	for _, opts := range []*RecordOptions{nil, {ScanGroups: 3}} {
		var buf bytes.Buffer
		meta, err := WriteRecordOpts(&buf, samples, opts)
		if err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		if len(meta.Headers) >= len(samples) || len(meta.scripts) != 2 {
			t.Fatalf("%d headers and %d scripts for %d samples of two kinds", len(meta.Headers), len(meta.scripts), len(samples))
		}
		for i, all := range streams(t, data, meta) {
			for g, stream := range all {
				if _, err := jpegc.Decode(stream); err != nil {
					t.Fatalf("%+v: sample %d at group %d: %v", opts, i, g+1, err)
				}
			}
		}
		for i, s := range samples {
			assertFullQualityIsLossless(t, meta, data, i, s.JPEG)
		}
	}
}

// TestRecordSameFromBaselineOrProgressive: progressive inputs are decoded and
// walked like baseline ones, so inputs that hold the same coefficients make
// the same record, byte for byte.
func TestRecordSameFromBaselineOrProgressive(t *testing.T) {
	samples := mixedSamples(t)
	prog := slices.Clone(samples)
	for i := range prog {
		var err error
		if prog[i].JPEG, err = jpegc.Transcode(samples[i].JPEG, &jpegc.Options{Progressive: true}); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := writeTestRecord(t, samples)
	b, _ := writeTestRecord(t, prog)
	if !bytes.Equal(a, b) {
		t.Fatal("progressive inputs make a different record from the baseline ones")
	}
}

// TestPermutedRecordSameStreams: the shared tables are built from counts
// summed over the record, which no order changes; so permuting the samples
// permutes their slices and leaves every sample's stream, at every group,
// as it was.
func TestPermutedRecordSameStreams(t *testing.T) {
	samples := mixedSamples(t)
	data, meta := writeTestRecord(t, samples)
	want := streams(t, data, meta)
	rng := rand.New(rand.NewSource(4))
	for range 3 {
		perm := slices.Clone(samples)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		data, meta := writeTestRecord(t, perm)
		for id, all := range streams(t, data, meta) {
			for g := range all {
				if !bytes.Equal(all[g], want[id][g]) {
					t.Fatalf("sample %d at group %d: stream changed with the order of the record", id, g+1)
				}
			}
		}
	}
}

// TestCoalescedRecordSparseReads: with scans coalesced into fewer groups, a
// group's preamble holds the framing of several scans and a slice the data
// of several; a sparse read assembles what a full one does at every group.
// (pcr's TestRemoteFiltered* hold the server's bytes to PlanFilter on such
// records.)
func TestCoalescedRecordSparseReads(t *testing.T) {
	samples := mixedSamples(t)
	var buf bytes.Buffer
	meta, err := WriteRecordOpts(&buf, samples, &RecordOptions{ScanGroups: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	re := &RecordInfo{Name: "record", Samples: len(samples)}
	for g := 0; g <= meta.NumGroups; g++ {
		n, _ := meta.PrefixLen(g)
		re.Prefixes = append(re.Prefixes, n)
	}
	for _, s := range meta.Samples {
		re.SampleIDs = append(re.SampleIDs, s.ID)
		re.SampleLabels = append(re.SampleLabels, s.Label)
		re.SampleGroupLens = append(re.SampleGroupLens, s.GroupLens...)
	}
	if err := re.validate(); err != nil {
		t.Fatal(err)
	}
	sel := make([]bool, len(samples))
	sel[1], sel[4], sel[7] = true, true, true
	for g := 1; g <= meta.NumGroups; g++ {
		ranges, err := re.SampleRanges(g, sel)
		if err != nil {
			t.Fatal(err)
		}
		body, err := GatherRanges(nil, data, ranges)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := assemble(body, g, sel, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, on := range sel {
			if !on {
				continue
			}
			want, err := meta.SampleJPEG(data, i, g)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[i], want) {
				t.Fatalf("group %d sample %d: sparse read differs from the prefix read", g, i)
			}
		}
	}
}

// TestParseRecordMetaRefusesBadReferences: a section whose references or
// lengths no table can be built from is refused as ErrCorrupt; one whose
// framing runs past the record parses, and no prefix of the file serves it.
func TestParseRecordMetaRefusesBadReferences(t *testing.T) {
	data, want := writeTestRecord(t, mixedSamples(t))
	clone := func() *RecordMeta {
		m := *want
		m.Headers = slices.Clone(want.Headers)
		m.Samples = slices.Clone(want.Samples)
		m.scripts = slices.Clone(want.scripts)
		m.lens = slices.Clone(want.lens)
		for k := range m.scripts {
			m.scripts[k].framing = slices.Clone(m.scripts[k].framing)
		}
		return &m
	}
	for name, mut := range map[string]func(m *RecordMeta){
		"header index out of range": func(m *RecordMeta) { m.Samples[2].Header = len(m.Headers) },
		"script index out of range": func(m *RecordMeta) { m.Headers[0].Script = 2 },
		"a scan length too few":     func(m *RecordMeta) { m.Samples[0].scanN-- },
		"slices overflow": func(m *RecordMeta) {
			m.scanLens(&m.Samples[0])[0], m.scanLens(&m.Samples[1])[0] = math.MaxInt64, math.MaxInt64
		},
		"preamble overflows": func(m *RecordMeta) { m.scripts[0].framing[0] = math.MaxInt64 },
		// Two bytes apiece, each of which would take NumGroups+1 entries
		// of two offset tables.
		"unreferenced empty scripts": func(m *RecordMeta) {
			m.scripts = append(m.scripts, make([]recordScript, m.BodyStart)...)
		},
	} {
		m := clone()
		mut(m)
		if _, err := ParseRecordMeta(respell(data, m, false, false)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	m := clone()
	m.scripts[0].framing[1] = 1 << 40
	spelled := respell(data, m, false, false)
	got, err := ParseRecordMeta(spelled)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.SampleJPEG(spelled, 0, 2); err == nil {
		t.Error("a preamble past the end of the record was served")
	}
}
