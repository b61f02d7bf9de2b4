package core

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/jpegc"
	"repro/internal/mssim"
	"repro/internal/synth"
)

// buildSamples encodes n synthetic images as baseline JPEG.
func buildSamples(t testing.TB, n int) []Sample {
	t.Helper()
	p := synth.Cars
	p.NumImages = n
	p.ImageSize = 48
	ds, err := synth.Generate(p, 17)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]synth.Sample(nil), ds.Train...), ds.Test...)
	var out []Sample
	for _, s := range all[:n] {
		data, err := jpegc.Encode(s.Img, &jpegc.Options{Quality: p.JPEGQuality})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Sample{ID: int64(s.ID), Label: int64(s.Label), JPEG: data})
	}
	return out
}

func writeTestRecord(t testing.TB, samples []Sample) ([]byte, *RecordMeta) {
	t.Helper()
	var buf bytes.Buffer
	meta, err := WriteRecord(&buf, samples)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), meta
}

func TestWriteRecordAndParse(t *testing.T) {
	samples := buildSamples(t, 6)
	data, meta := writeTestRecord(t, samples)

	if meta.NumGroups != 10 {
		t.Fatalf("NumGroups = %d, want 10", meta.NumGroups)
	}
	if len(meta.Samples) != 6 {
		t.Fatalf("samples = %d", len(meta.Samples))
	}
	if meta.TotalLen() != int64(len(data)) {
		t.Errorf("TotalLen = %d, file is %d bytes", meta.TotalLen(), len(data))
	}
	// Reparse from the file bytes.
	meta2, err := ParseRecordMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range meta.Samples {
		if meta.Samples[i].ID != meta2.Samples[i].ID || meta.Samples[i].Label != meta2.Samples[i].Label {
			t.Errorf("sample %d identity mismatch", i)
		}
	}
	// Metadata-only prefix must be parseable.
	p0, err := meta.PrefixLen(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseRecordMeta(data[:p0]); err != nil {
		t.Errorf("metadata-only prefix: %v", err)
	}
}

func TestEveryPrefixDecodesEveryImage(t *testing.T) {
	samples := buildSamples(t, 4)
	data, meta := writeTestRecord(t, samples)
	for g := 1; g <= meta.NumGroups; g++ {
		need, err := meta.PrefixLen(g)
		if err != nil {
			t.Fatal(err)
		}
		prefix := data[:need]
		for i := range meta.Samples {
			img, err := decodeSample(meta, prefix, i, g)
			if err != nil {
				t.Fatalf("group %d sample %d: %v", g, i, err)
			}
			if img.Bounds().Dx() != 48 {
				t.Fatalf("group %d sample %d: bad size %v", g, i, img.Bounds())
			}
		}
	}
}

func TestQualityMonotoneInScanGroup(t *testing.T) {
	samples := buildSamples(t, 3)
	data, meta := writeTestRecord(t, samples)
	full := data[:meta.TotalLen()]
	for i := range meta.Samples {
		ref, err := decodeSample(meta, full, i, meta.NumGroups)
		if err != nil {
			t.Fatal(err)
		}
		prev := -1.0
		for _, g := range []int{1, 2, 5, 10} {
			need, _ := meta.PrefixLen(g)
			img, err := decodeSample(meta, data[:need], i, g)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := mssim.MSSIM(img, ref)
			if err != nil {
				t.Fatal(err)
			}
			if sim < prev-0.02 {
				t.Errorf("sample %d: MSSIM dropped at group %d: %.4f < %.4f", i, g, sim, prev)
			}
			if sim > prev {
				prev = sim
			}
		}
		if prev < 0.999 {
			t.Errorf("sample %d: full-quality MSSIM %.4f, want ~1", i, prev)
		}
	}
}

func TestFullQualityMatchesOriginal(t *testing.T) {
	// Reading all scan groups must give back exactly the original's
	// coefficients (lossless rearrangement).
	samples := buildSamples(t, 2)
	data, meta := writeTestRecord(t, samples)
	for i, s := range samples {
		assertFullQualityIsLossless(t, meta, data, i, s.JPEG)
	}
}

// assertFullQualityIsLossless checks that sample i of a record, read at
// full quality, holds its input's coefficients. Transcode is the oracle: it
// derives every byte of its output from the coefficients alone, so two
// streams transcode alike exactly when they hold the same ones.
func assertFullQualityIsLossless(t *testing.T, meta *RecordMeta, data []byte, i int, input []byte) {
	t.Helper()
	want, err := jpegc.Transcode(input, &jpegc.Options{Progressive: true})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := meta.SampleJPEG(data, i, meta.NumGroups)
	if err != nil {
		t.Fatal(err)
	}
	got, err := jpegc.Transcode(stream, &jpegc.Options{Progressive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sample %d: the full-quality stream does not hold the input's coefficients", i)
	}
}

func TestNoSpaceOverhead(t *testing.T) {
	// The PCR record must be within 10% of the sum of progressive images
	// (metadata is small) and within ~15% of the baseline dataset.
	samples := buildSamples(t, 16)
	data, _ := writeTestRecord(t, samples)
	var progTotal, baseTotal int
	for _, s := range samples {
		prog, err := jpegc.Transcode(s.JPEG, &jpegc.Options{Progressive: true})
		if err != nil {
			t.Fatal(err)
		}
		progTotal += len(prog)
		baseTotal += len(s.JPEG)
	}
	if r := float64(len(data)) / float64(progTotal); r > 1.10 {
		t.Errorf("PCR/progressive size ratio = %.3f", r)
	}
	if r := float64(len(data)) / float64(baseTotal); r > 1.15 {
		t.Errorf("PCR/baseline size ratio = %.3f (pcr %d, base %d)", r, len(data), baseTotal)
	}
}

func TestShortPrefixRejected(t *testing.T) {
	samples := buildSamples(t, 2)
	data, meta := writeTestRecord(t, samples)
	need, _ := meta.PrefixLen(3)
	if _, err := meta.SampleJPEG(data[:need-1], 0, 3); err == nil {
		t.Error("short prefix accepted")
	}
	if _, err := meta.SampleJPEG(data, 0, 0); err == nil {
		t.Error("scan group 0 image read accepted")
	}
	if _, err := meta.SampleJPEG(data, 99, 1); err == nil {
		t.Error("bad sample index accepted")
	}
}

// TestSampleJPEGAllocatesOnce: the reassembled stream is sized before it is
// filled, so reassembly costs one allocation of exactly the stream's length
// however many scan groups are appended — and a read of a record file that
// lies about a length is refused as corruption before anything is sized by
// it: the lie moves the prefix lengths off the index entry's, or is one no
// record can hold.
func TestSampleJPEGAllocatesOnce(t *testing.T) {
	samples := buildSamples(t, 2)
	data, meta := writeTestRecord(t, samples)
	for _, g := range []int{1, 5, meta.NumGroups} {
		var out []byte
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if out, err = meta.SampleJPEG(data, 1, g); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 || cap(out) != len(out) {
			t.Errorf("group %d: %v allocations, %d bytes reserved for a %d-byte stream; want 1 and no slack", g, allocs, cap(out), len(out))
		}
	}

	ds, _ := buildIndexedDataset(t)
	need, err := ds.RecordPrefixLen(0, ds.NumGroups)
	if err != nil {
		t.Fatal(err)
	}
	if data, err = ds.ReadRecordRange(0, 0, need); err != nil {
		t.Fatal(err)
	}
	if meta, err = ParseRecordMeta(data); err != nil {
		t.Fatal(err)
	}
	// read is a record read of the file's bytes: parsed against its index
	// entry, then reassembled.
	read := func(file []byte) error {
		m := new(RecordMeta)
		err := ds.ParseRecordPrefix(m, 0, file)
		if err == nil {
			_, err = m.SampleJPEG(file, 1, 3)
		}
		return err
	}
	// spell is the record with sample 1's scan 2 claiming n bytes.
	spell := func(n int64) []byte {
		m := *meta
		m.lens = slices.Clone(meta.lens)
		m.scanLens(&m.Samples[1])[1] = n
		return respell(data, &m, false, false)
	}
	honest := meta.scanLens(&meta.Samples[1])[1]
	if err := read(spell(honest)); err != nil {
		t.Fatalf("the record respelled with its own lengths: %v", err)
	}
	for _, n := range []int64{-1, honest + 1, int64(len(data)) + 1, math.MaxInt64} {
		if err := read(spell(n)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("scan length %d: err = %v, want ErrCorrupt", n, err)
		}
	}
}

// TestSampleJPEGsMatchSampleJPEG: a record read's streams are SampleJPEG's,
// delivered in sample order for the samples the selection keeps past the
// resume point; they share one buffer of exactly their total length, each
// with no room to grow into the next; and what SampleJPEG refuses, they
// refuse, delivering nothing.
func TestSampleJPEGsMatchSampleJPEG(t *testing.T) {
	data, meta := writeTestRecord(t, buildSamples(t, 6))
	n := len(meta.Samples)
	sel := []bool{true, false, true, true, false, true}
	for _, tc := range []struct {
		sel  []bool
		from int
		want []int // the samples delivered
	}{
		{nil, 0, []int{0, 1, 2, 3, 4, 5}},
		{nil, 4, []int{4, 5}},
		{sel, 0, []int{0, 2, 3, 5}},
		{sel, 2, []int{3, 5}},
		{sel, 4, nil},
	} {
		for _, g := range []int{1, meta.NumGroups} {
			var got []int
			streams := make([][]byte, n)
			if err := meta.SampleJPEGs(data, g, tc.sel, tc.from, nil, func(i int, s []byte) {
				got = append(got, i)
				streams[i] = s
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("sel %v from %d: delivered samples %v, want %v", tc.sel, tc.from, got, tc.want)
			}
			total := 0
			for _, i := range tc.want {
				s := streams[i]
				want, err := meta.SampleJPEG(data, i, g)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(s, want) || cap(s) != len(s) {
					t.Fatalf("sel %v from %d, group %d: sample %d differs from SampleJPEG's or has room to grow", tc.sel, tc.from, g, i)
				}
				total += len(s)
			}
			if len(tc.want) > 0 {
				first, last := streams[tc.want[0]], streams[tc.want[len(tc.want)-1]]
				if got := int(uintptr(unsafe.Pointer(unsafe.SliceData(last))) + uintptr(len(last)) - uintptr(unsafe.Pointer(unsafe.SliceData(first)))); got != total {
					t.Fatalf("sel %v from %d: the streams span %d bytes, total %d", tc.sel, tc.from, got, total)
				}
			}
		}
	}
	deliver := func(i int, _ []byte) { t.Errorf("sample %d delivered by a refused read", i) }
	if err := meta.SampleJPEGs(data, 1, sel[:n-1], 0, nil, deliver); err == nil {
		t.Error("a selection of the wrong length was accepted")
	}
	if err := meta.SampleJPEGs(data, 0, nil, 0, nil, deliver); err == nil {
		t.Error("scan group 0 accepted")
	}
	need, err := meta.PrefixLen(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := meta.SampleJPEGs(data[:need-1], 2, nil, 0, nil, deliver); err == nil {
		t.Error("a prefix too short for its group accepted")
	}
	meta.Samples[3].GroupLens[0] = int64(len(data))
	if err := meta.SampleJPEGs(data, 2, nil, 0, nil, deliver); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a group length past the prefix: err = %v, want ErrCorrupt", err)
	}
}

func TestParseRejectsDamage(t *testing.T) {
	samples := buildSamples(t, 2)
	data, _ := writeTestRecord(t, samples)
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := ParseRecordMeta(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ParseRecordMeta(data[:6]); err == nil {
		t.Error("short header accepted")
	}
	if _, err := ParseRecordMeta(data[:20]); err == nil {
		t.Error("truncated metadata accepted")
	}
}

func TestEmptyRecordRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteRecord(&buf, nil); err == nil {
		t.Error("empty record accepted")
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	samples := buildSamples(t, 10)
	w, err := CreateDataset(dir, &DatasetOptions{ImagesPerRecord: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if err := w.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	ds, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.NumRecords() != 3 { // 4+4+2
		t.Fatalf("records = %d, want 3", ds.NumRecords())
	}
	if ds.NumImages() != 10 {
		t.Fatalf("images = %d", ds.NumImages())
	}
	if ds.NumGroups != 10 {
		t.Fatalf("groups = %d", ds.NumGroups)
	}

	// Check RecordPrefixLen agrees with on-disk metadata and scan-group
	// reads decode labeled images.
	seen := map[int64]bool{}
	for r := 0; r < ds.NumRecords(); r++ {
		for _, g := range []int{1, 5, 10} {
			prefix, meta, err := readPrefix(ds, r, g)
			if err != nil {
				t.Fatalf("record %d group %d: %v", r, g, err)
			}
			n := ds.records[r].Samples
			if len(meta.Samples) != n {
				t.Fatalf("record %d: %d samples, want %d", r, len(meta.Samples), n)
			}
			for si, s := range meta.Samples {
				if g == 10 {
					seen[s.ID] = true
				}
				if _, err := decodeSample(meta, prefix, si, g); err != nil {
					t.Fatalf("record %d group %d sample %d: %v", r, g, si, err)
				}
			}
		}
		// Prefix lengths must be strictly increasing in g.
		prev := int64(-1)
		for g := 0; g <= ds.NumGroups; g++ {
			n, err := ds.RecordPrefixLen(r, g)
			if err != nil {
				t.Fatal(err)
			}
			if n <= prev {
				t.Fatalf("record %d: prefix(%d)=%d not increasing", r, g, n)
			}
			prev = n
		}
	}
	if len(seen) != 10 {
		t.Errorf("saw %d unique ids, want 10", len(seen))
	}
	// Labels must match the originals.
	_, meta, err := readPrefix(ds, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range meta.Samples {
		if s.Label != samples[i].Label {
			t.Errorf("sample %d label %d, want %d", i, s.Label, samples[i].Label)
		}
	}
}

// TestRecordOutOfRange: every Dataset method that takes a record number
// refuses one before the first record or past the last, naming it, and
// reads nothing.
func TestRecordOutOfRange(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateDataset(dir, &DatasetOptions{ImagesPerRecord: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range buildSamples(t, 6) {
		if err := w.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	prefix, _, err := readPrefix(ds, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]func(i int) error{
		"RecordName":        func(i int) error { _, err := ds.RecordName(i); return err },
		"RecordPrefixLen":   func(i int) error { _, err := ds.RecordPrefixLen(i, 1); return err },
		"ReadRecordRange":   func(i int) error { _, err := ds.ReadRecordRange(i, 0, 8); return err },
		"SampleIndex":       func(i int) error { _, _, err := ds.SampleIndex(i); return err },
		"SampleRanges":      func(i int) error { _, err := ds.SampleRanges(i, 1, nil); return err },
		"SampleBytes":       func(i int) error { _, err := ds.SampleBytes(i, 1, nil); return err },
		"ParseRecordPrefix": func(i int) error { return ds.ParseRecordPrefix(new(RecordMeta), i, prefix) },
	}
	for name, call := range calls {
		for _, i := range []int{-1, ds.NumRecords()} {
			want := fmt.Sprintf("core: record %d out of range", i)
			if err := call(i); err == nil || err.Error() != want {
				t.Errorf("%s(%d): %v, want %q", name, i, err, want)
			}
		}
	}
}

// A directory without a dataset, or no directory at all, is fs.ErrNotExist,
// and opening it creates nothing.
func TestOpenDatasetMissing(t *testing.T) {
	empty := t.TempDir()
	missing := filepath.Join(t.TempDir(), "nope")
	for _, dir := range []string{empty, missing} {
		if _, err := OpenDataset(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("OpenDataset(%s) = %v, want fs.ErrNotExist", dir, err)
		}
	}
	if entries, err := os.ReadDir(empty); err != nil || len(entries) != 0 {
		t.Errorf("OpenDataset wrote into an empty dir: %d entries, %v", len(entries), err)
	}
	if _, err := os.Stat(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("OpenDataset created %s (stat: %v)", missing, err)
	}
}

func TestGrayscaleRecord(t *testing.T) {
	// Grayscale images have 6 scans; the record must still work with later
	// groups empty.
	img := image.NewGray(image.Rect(0, 0, 32, 32))
	for i := range img.Pix {
		img.Pix[i] = uint8(i * 7 % 256)
	}
	data, err := jpegc.Encode(img, &jpegc.Options{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	meta, err := WriteRecord(&buf, []Sample{{ID: 1, Label: 2, JPEG: data}})
	if err != nil {
		t.Fatal(err)
	}
	if meta.NumGroups != 6 {
		t.Fatalf("gray NumGroups = %d, want 6", meta.NumGroups)
	}
	for g := 1; g <= 6; g++ {
		need, _ := meta.PrefixLen(g)
		if _, err := decodeSample(meta, buf.Bytes()[:need], 0, g); err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
	}
}

// readPrefix reads record i's prefix through scan group g and parses it: one
// sequential read from offset zero, as a reader of the index issues it.
func readPrefix(ds *Dataset, i, g int) ([]byte, *RecordMeta, error) {
	need, err := ds.RecordPrefixLen(i, g)
	if err != nil {
		return nil, nil, err
	}
	buf, err := ds.ReadRecordRange(i, 0, need)
	if err != nil {
		return nil, nil, err
	}
	meta := new(RecordMeta)
	if err := ds.ParseRecordPrefix(meta, i, buf); err != nil {
		return nil, nil, err
	}
	return buf, meta, nil
}

// decodeSample reassembles and decodes sample i at scan group g.
func decodeSample(m *RecordMeta, prefix []byte, i, g int) (image.Image, error) {
	stream, err := m.SampleJPEG(prefix, i, g)
	if err != nil {
		return nil, err
	}
	return jpegc.Decode(stream)
}
