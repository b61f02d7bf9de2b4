package core

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"
)

func TestDirBackendReadRange(t *testing.T) {
	dir := t.TempDir()
	content := []byte("0123456789abcdef")
	if err := os.WriteFile(filepath.Join(dir, "obj"), content, 0o644); err != nil {
		t.Fatal(err)
	}
	b := NewDirBackend(dir)

	got, err := b.ReadRange("obj", 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "456789" {
		t.Fatalf("ReadRange = %q", got)
	}
	// A range past EOF is structural damage: the index promised bytes the
	// object does not have. Ranges come from on-disk metadata, so one is
	// refused before its length sizes an allocation: a 512 GiB length from
	// one edited manifest field must not reach make.
	for _, r := range []struct{ off, n int64 }{{10, 100}, {0, 1 << 39}, {1 << 62, 1 << 62}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := b.ReadRange("obj", r.off, r.n)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadRange(obj, %d, %d) error = %v, want ErrCorrupt", r.off, r.n, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Errorf("ReadRange(obj, %d, %d) allocated %d bytes before refusing", r.off, r.n, grew)
		}
	}
	if _, err := b.ReadRange("missing", 0, 1); err == nil {
		t.Fatal("ReadRange of missing object succeeded")
	}
	// Names must not escape the dataset directory.
	for _, name := range []string{"../obj", "/etc/hosts", "a/../../obj"} {
		if _, err := b.ReadRange(name, 0, 1); err == nil {
			t.Fatalf("ReadRange(%q) escaped the backend root", name)
		}
	}

	rc, err := b.Open("obj")
	if err != nil {
		t.Fatal(err)
	}
	all, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || string(all) != string(content) {
		t.Fatalf("Open/ReadAll = %q, %v", all, err)
	}

	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "obj" {
		t.Fatalf("List = %v", names)
	}
}

// TestDirBackendReadRangeInto runs ReadRange's cases through the read-into
// seam with no buffer, one too small and one larger than the range: a read
// lands in dst when it has room and in a new exact-size buffer otherwise,
// and a negative length or a truncated object is refused before anything
// is allocated or read into dst.
func TestDirBackendReadRangeInto(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "obj"), []byte("0123456789abcdef"), 0o644); err != nil {
		t.Fatal(err)
	}
	b := NewDirBackend(dir)
	for _, tc := range []struct {
		name string
		dst  []byte
	}{
		{"nil", nil},
		{"small", make([]byte, 2)},
		{"large", make([]byte, 3, 64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := b.ReadRangeInto(tc.dst, "obj", 4, 6)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "456789" {
				t.Fatalf("ReadRangeInto = %q", got)
			}
			if into := cap(tc.dst) >= 6; into != (unsafe.SliceData(got) == unsafe.SliceData(tc.dst)) {
				t.Fatalf("cap(dst) = %d: read into dst = %v, want %v", cap(tc.dst), !into, into)
			} else if !into && cap(got) != 6 {
				t.Fatalf("new buffer has capacity %d, want exactly 6", cap(got))
			}

			if _, err := b.ReadRangeInto(tc.dst, "obj", 0, -1); err == nil {
				t.Fatal("ReadRangeInto of a negative length succeeded")
			}
			for _, r := range []struct{ off, n int64 }{{10, 100}, {0, 1 << 39}, {1 << 62, 1 << 62}} {
				if len(tc.dst) > 0 {
					tc.dst[0] = '#'
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := b.ReadRangeInto(tc.dst, "obj", r.off, r.n)
				runtime.ReadMemStats(&after)
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("ReadRangeInto(obj, %d, %d) error = %v, want ErrCorrupt", r.off, r.n, err)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
					t.Errorf("ReadRangeInto(obj, %d, %d) allocated %d bytes before refusing", r.off, r.n, grew)
				}
				if len(tc.dst) > 0 && tc.dst[0] != '#' {
					t.Errorf("ReadRangeInto(obj, %d, %d) read into dst before refusing", r.off, r.n)
				}
			}
		})
	}
}

// rangeOnly hides every method of a Backend but the four it must have.
type rangeOnly struct{ Backend }

// ownBuffer is a RangeReaderInto that always answers in a buffer of its
// own, as a hedged remote read does.
type ownBuffer struct{ *DirBackend }

func (b ownBuffer) ReadRangeInto(_ []byte, name string, offset, length int64) ([]byte, error) {
	return b.DirBackend.ReadRange(name, offset, length)
}

// TestReadRangeInto: whatever the backend reads — into a lent buffer, only
// with ReadRange, or into a buffer of its own — the function returns the
// window in dst when it has room and in a new exact-size buffer otherwise,
// and passes a refusal through.
func TestReadRangeInto(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "obj"), []byte("0123456789abcdef"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		name string
		b    Backend
	}{
		{"into", NewDirBackend(dir)},
		{"range-only", rangeOnly{NewDirBackend(dir)}},
		{"own-buffer", ownBuffer{NewDirBackend(dir)}},
	} {
		for _, dst := range [][]byte{nil, make([]byte, 2), make([]byte, 3, 64)} {
			got, err := ReadRangeInto(b.b, dst, "obj", 4, 6)
			if err != nil || string(got) != "456789" {
				t.Fatalf("%s, cap(dst) %d: ReadRangeInto = %q, %v", b.name, cap(dst), got, err)
			}
			if into := cap(dst) >= 6; into != (unsafe.SliceData(got) == unsafe.SliceData(dst)) {
				t.Fatalf("%s, cap(dst) %d: read into dst = %v, want %v", b.name, cap(dst), !into, into)
			} else if !into && cap(got) != 6 {
				t.Fatalf("%s: new buffer has capacity %d, want exactly 6", b.name, cap(got))
			}
		}
		if _, err := ReadRangeInto(b.b, make([]byte, 64), "obj", 10, 100); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: reading past the end = %v, want ErrCorrupt", b.name, err)
		}
	}
}

func TestIndexRoundTripAndValidation(t *testing.T) {
	ix := &Index{
		NumGroups: 3,
		NumImages: 3,
		Records: []RecordInfo{
			{Name: "record-00000.pcr", Samples: 2, Prefixes: []int64{100, 200, 350, 500},
				SampleIDs: []int64{0, 1}, SampleLabels: []int64{7, 7}, SampleGroupLens: []int64{40, 70, 75, 60, 80, 75}},
			{Name: "record-00001.pcr", Samples: 1, Prefixes: []int64{90, 180, 330, 470},
				SampleIDs: []int64{2}, SampleLabels: []int64{3}, SampleGroupLens: []int64{90, 150, 140}},
		},
	}
	data, err := EncodeIndex(ix)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumGroups != ix.NumGroups || back.NumImages != ix.NumImages || len(back.Records) != 2 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if back.Records[1].Name != "record-00001.pcr" || back.Records[1].Prefixes[3] != 470 {
		t.Fatalf("round trip damaged records: %+v", back.Records)
	}

	// Malformed documents: each is refused as corrupt, however far it
	// parses.
	header := encodeHeader(3, ix.NumGroups, ix.NumImages)
	for i := range ix.Records {
		header.Bytes(4, encodeRecordEntry(nil, &ix.Records[i]))
	}
	unnamed := *ix
	unnamed.Records = []RecordInfo{ix.Records[0], ix.Records[1]}
	unnamed.Records[1].Name = ""
	noName, err := EncodeIndex(&unnamed)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		name string
		doc  []byte
	}{
		{"truncated varint", []byte{0x08, 0x80}},
		{"header counts more records than it holds", header.Encode()},
		{"entry with an empty name", noName},
		{"trailing partial field", append(data[:len(data):len(data)], 0x22, 0x05, 0x0a)},
	} {
		if _, err := ParseIndex(bad.doc); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ParseIndex of a %s: error = %v, want ErrCorrupt", bad.name, err)
		}
	}
}

// TestOpenDatasetIndexMatchesLocal: a dataset opened from its own exported
// index over a DirBackend reads identically to the kvstore-backed open.
func TestOpenDatasetIndexMatchesLocal(t *testing.T) {
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

	local, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	data, err := EncodeIndex(local.Index())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ParseIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	viaIndex, err := OpenDatasetIndex(ix, NewDirBackend(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer viaIndex.Close()

	if viaIndex.NumRecords() != local.NumRecords() || viaIndex.NumImages() != local.NumImages() {
		t.Fatalf("index-opened dataset disagrees: %d/%d records, %d/%d images",
			viaIndex.NumRecords(), local.NumRecords(), viaIndex.NumImages(), local.NumImages())
	}
	for i := 0; i < local.NumRecords(); i++ {
		for g := 0; g <= local.NumGroups; g++ {
			a, err := local.RecordPrefixLen(i, g)
			if err != nil {
				t.Fatal(err)
			}
			b, err := viaIndex.RecordPrefixLen(i, g)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("record %d group %d: prefix len %d vs %d", i, g, a, b)
			}
		}
		pa, ma, err := readPrefix(local, i, 1)
		if err != nil {
			t.Fatal(err)
		}
		pb, mb, err := readPrefix(viaIndex, i, 1)
		if err != nil {
			t.Fatal(err)
		}
		if string(pa) != string(pb) || len(ma.Samples) != len(mb.Samples) {
			t.Fatalf("record %d: prefix reads differ between kvstore open and index open", i)
		}
	}
}
