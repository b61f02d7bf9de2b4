package core

import (
	"bytes"
	"errors"
	"slices"
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
			img, err := decodeSample(meta, data[:need], i, g)
			if err != nil {
				t.Fatalf("group %d sample %d: %v", g, i, err)
			}
			if img.Bounds().Dx() != 52 || img.Bounds().Dy() != 52 {
				t.Fatalf("bad bounds %v", img.Bounds())
			}
		}
	}
	// Full read must reproduce the original's progressive transcode.
	for i, s := range samples {
		assertFullQualityIsLossless(t, meta, data, i, s.JPEG)
	}
}

// FuzzParseRecordMeta feeds arbitrary bytes to the record parser and to
// the calls that turn a parsed record back into JPEG streams — the bytes a
// Loader reads from a store it does not control, parsed on a goroutine no
// caller can recover for. The seeds are a record of three samples whole, cut
// inside its metadata, cut inside its body and respelled (group count last,
// a sample's lengths split over two fields); testdata/fuzz adds records
// that spell huge, negative and overflowing lengths, out-of-range headers,
// thousands of empty scripts no header names, and bit-flipped records that
// still parse. Any input may be refused. None may panic, none may size
// an allocation by a number the bytes merely spell, and a stream that comes
// back is made of bytes that were there. The parser is held to the one
// before it (reference_test.go): both refuse the same inputs, and on the
// rest agree on every prefix length and on every stream SampleJPEG,
// SampleJPEGs and AssembleSamples return — whole, selected and resumed. So
// does a parse into a RecordMeta that holds another record, as a reader
// reuses one from read to read.
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
		ref, refPanicked, refErr := refParse(data)
		if !refPanicked && (err == nil) != (refErr == nil) {
			t.Fatalf("the parser says %v, the reference %v", err, refErr)
		}
		// A parse into a RecordMeta that holds another record — the valid
		// one — as a reader's does, is a fresh parse.
		used, usedErr := ParseRecordMeta(valid)
		if usedErr != nil {
			t.Fatal(usedErr)
		}
		if usedErr := used.parse(data); (usedErr == nil) != (err == nil) {
			t.Fatalf("a fresh parse says %v, a parse into a used RecordMeta %v", err, usedErr)
		}
		if err != nil {
			return
		}
		if !refPanicked {
			agreeWithReference(t, data, m, ref)
			agreeWithReference(t, data, used, ref)
		}
		// The offset tables hold a word per sample and group, and every one
		// of those was a byte of the metadata section.
		if words := m.NumGroups * len(m.Samples); words <= 0 || int64(words) > m.BodyStart {
			t.Fatalf("%d groups × %d samples parsed from a %d-byte metadata section", m.NumGroups, len(m.Samples), m.BodyStart)
		}
		// So do the scripts' tables, a word per group and one more apiece.
		if words := (m.NumGroups + 1) * len(m.scripts); int64(words) > m.BodyStart {
			t.Fatalf("%d groups × %d scripts parsed from a %d-byte metadata section", m.NumGroups, len(m.scripts), m.BodyStart)
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
				if limit := len(m.Headers[m.Samples[i].Header].JPEG) + len(prefix) + 2; len(stream) > limit {
					t.Fatalf("sample %d at group %d is %d bytes from a %d-byte prefix", i, g, len(stream), len(prefix))
				}
			}
		}
	})
}

// refParse is the reference parser, which panics on a section whose
// fields' wire types steer its counting pass and its parse apart, so that
// the parse meets a sample the count did not (slices.Grow by a negative
// count; the seed be2d58fba19229d7). Such a section is held to the
// parser's own properties alone.
func refParse(data []byte) (ref *refRecordMeta, panicked bool, err error) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	ref, err = refParseRecordMeta(data)
	return ref, false, err
}

// delivered is what one record read handed its deliver callback, in order.
type delivered struct {
	samples []int
	streams [][]byte
	err     error
}

func collect(read func(deliver func(i int, stream []byte)) error) delivered {
	var d delivered
	d.err = read(func(i int, stream []byte) {
		d.samples = append(d.samples, i)
		d.streams = append(d.streams, stream)
	})
	return d
}

func (d delivered) equal(o delivered) bool {
	return (d.err == nil) == (o.err == nil) && slices.Equal(d.samples, o.samples) &&
		slices.EqualFunc(d.streams, o.streams, bytes.Equal)
}

// agreeWithReference fails t unless m, parsed from data, and ref, the
// reference parser's reading of it, agree on every prefix length and every
// stream a read reassembles: each sample alone (SampleJPEG), a record read
// whole and a selection of every other sample resumed past its first
// (SampleJPEGs), and the same selection gathered as the record's own index
// entry plans it (AssembleSamples), at every scan group.
func agreeWithReference(t *testing.T, data []byte, m *RecordMeta, ref *refRecordMeta) {
	t.Helper()
	if m.NumGroups != ref.NumGroups || len(m.Samples) != len(ref.Samples) {
		t.Fatalf("%d groups and %d samples, the reference %d and %d", m.NumGroups, len(m.Samples), ref.NumGroups, len(ref.Samples))
	}
	re := &RecordInfo{Name: "record", Samples: len(ref.Samples), Prefixes: ref.prefix}
	sel := make([]bool, len(m.Samples))
	for i, s := range ref.Samples {
		if m.Samples[i].ID != s.ID || m.Samples[i].Label != s.Label || !slices.Equal(m.Samples[i].GroupLens, s.GroupLens) {
			t.Fatalf("sample %d differs from the reference's", i)
		}
		re.SampleGroupLens = append(re.SampleGroupLens, s.GroupLens...)
		sel[i] = i%2 == 0
	}
	// Each group's gathered body is parsed into the RecordMeta the group
	// before parsed its own into, as a reader's reads are.
	bm := new(RecordMeta)
	for g := 0; g <= m.NumGroups; g++ {
		need, err := m.PrefixLen(g)
		if want, _ := ref.PrefixLen(g); err != nil || need != want {
			t.Fatalf("PrefixLen(%d) = %d, %v; the reference's %d", g, need, err, want)
		}
		prefix := data[:min(need, int64(len(data)))]
		for i := range m.Samples {
			stream, err := m.SampleJPEG(prefix, i, g)
			want, wantErr := ref.SampleJPEG(prefix, i, g)
			if (err == nil) != (wantErr == nil) || !bytes.Equal(stream, want) {
				t.Fatalf("sample %d at group %d: %d bytes, %v; the reference %d bytes, %v", i, g, len(stream), err, len(want), wantErr)
			}
		}
		for _, read := range []struct {
			sel  []bool
			from int
		}{{nil, 0}, {sel, 1}} {
			got := collect(func(deliver func(int, []byte)) error {
				return m.SampleJPEGs(prefix, g, read.sel, read.from, nil, deliver)
			})
			want := collect(func(deliver func(int, []byte)) error { return ref.SampleJPEGs(prefix, g, read.sel, read.from, deliver) })
			if !got.equal(want) {
				t.Fatalf("record read at group %d, selection %v from %d: samples %v, %v; the reference %v, %v", g, read.sel, read.from, got.samples, got.err, want.samples, want.err)
			}
		}
		if g == 0 || need > int64(len(data)) {
			continue
		}
		ranges, err := re.SampleRanges(g, sel)
		if err != nil {
			t.Fatal(err)
		}
		body, err := GatherRanges(nil, data, ranges)
		if err != nil {
			t.Fatal(err)
		}
		if err := bm.parse(body); err != nil {
			t.Fatalf("gathered body at group %d: %v", g, err)
		}
		got := collect(func(deliver func(int, []byte)) error { return bm.AssembleSamples(body, g, sel, 1, nil, deliver) })
		_, streams, err := refAssembleSamples(body, g, sel)
		want := delivered{err: err}
		skip := 1
		for i, stream := range streams {
			if stream != nil && skip > 0 {
				skip--
			} else if stream != nil {
				want.samples = append(want.samples, i)
				want.streams = append(want.streams, stream)
			}
		}
		if !got.equal(want) {
			t.Fatalf("gathered read at group %d: samples %v, %v; the reference %v, %v", g, got.samples, got.err, want.samples, want.err)
		}
	}
}

// FuzzParseIndex feeds arbitrary bytes to the index parser — the /index
// document a remote reader is handed by a server it does not control, and
// plans every later read from, and the parser of the metadata database's
// entries too. Any input may be refused, as ErrCorrupt; none may panic.
// An index that comes back is one every read plan can trust: names set,
// prefixes non-negative and monotone, a side index the size the counts say
// whose lengths are non-negative and sum to the prefix deltas — so nothing
// in it is larger than the input that spelled it —, an image count that is
// its records' samples and a quality count that covers their scan groups,
// and it survives its own encoding.
func FuzzParseIndex(f *testing.F) {
	ds, _ := buildIndexedDataset(f)
	valid, err := EncodeIndex(ds.Index())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, tc := range corruptEntries {
		re := cloneEntry(ds.Index().Records[0])
		tc.mut(&re)
		damaged, err := EncodeIndex(&Index{NumGroups: ds.NumGroups, NumImages: re.Samples, Records: []RecordInfo{re}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(damaged)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := ParseIndex(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refused with %v, which is not ErrCorrupt", err)
			}
			return
		}
		words, images := 0, 0
		if ix.NumGroups < 0 {
			t.Fatalf("accepted %d quality levels", ix.NumGroups)
		}
		for r := range ix.Records {
			re := &ix.Records[r]
			ng := len(re.Prefixes) - 1
			if ng > ix.NumGroups {
				t.Fatalf("record %d stores %d groups of an index counting %d", r, ng, ix.NumGroups)
			}
			images += re.Samples
			if re.Name == "" || ng < 0 || re.Prefixes[0] < 0 || re.Samples < 0 ||
				len(re.SampleIDs) != re.Samples || len(re.SampleLabels) != re.Samples || len(re.SampleGroupLens) != re.Samples*ng {
				t.Fatalf("record %d accepted malformed: %+v", r, re)
			}
			words += len(re.Prefixes) + 2*re.Samples + len(re.SampleGroupLens)
			all := make([]bool, re.Samples)
			for i := range all {
				all[i] = true
			}
			for g := 1; g <= ng; g++ {
				if re.Prefixes[g] < re.Prefixes[g-1] {
					t.Fatalf("record %d: prefixes %v not monotone", r, re.Prefixes)
				}
				// Every sample selected is the whole prefix, which only holds
				// when the lengths are non-negative and sum to the deltas.
				ranges, err := re.SampleRanges(g, all)
				if err != nil || RangesTotal(ranges) != re.Prefixes[g] || len(ranges) > 1 {
					t.Fatalf("record %d group %d: all-selected ranges %v, %v; want one [0,%d)", r, g, ranges, err, re.Prefixes[g])
				}
			}
			for _, l := range re.SampleGroupLens {
				if l < 0 {
					t.Fatalf("record %d: negative length in %v", r, re.SampleGroupLens)
				}
			}
		}
		if images != ix.NumImages {
			t.Fatalf("index counts %d images, its records hold %d", ix.NumImages, images)
		}
		// A number costs the input at least one byte, a varint's least.
		if words > len(data) {
			t.Fatalf("%d numbers parsed from %d bytes", words, len(data))
		}
		if _, err := OpenDatasetIndex(ix, NewDirBackend("unused")); err != nil {
			t.Fatalf("OpenDatasetIndex refuses what ParseIndex accepted: %v", err)
		}
		enc, err := EncodeIndex(ix)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseIndex(enc)
		if err != nil {
			t.Fatalf("re-parsing the encoding of a parsed index: %v", err)
		}
		if again, err := EncodeIndex(back); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("index does not survive its own encoding (%v)", err)
		}
	})
}
