package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/wire"
)

// buildIndexedDataset writes a small dataset and returns the open dataset
// plus the original samples.
func buildIndexedDataset(t testing.TB) (*Dataset, []Sample) {
	t.Helper()
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
	t.Cleanup(func() { ds.Close() })
	return ds, samples
}

func TestSampleIndexRoundTrip(t *testing.T) {
	ds, samples := buildIndexedDataset(t)
	si := 0
	for r := 0; r < ds.NumRecords(); r++ {
		ids, labels, err := ds.SampleIndex(r)
		if err != nil {
			t.Fatal(err)
		}
		n := ds.records[r].Samples
		if len(ids) != n || len(labels) != n {
			t.Fatalf("record %d: %d ids, %d labels, want %d", r, len(ids), len(labels), n)
		}
		for i := 0; i < n; i++ {
			if ids[i] != samples[si].ID || labels[i] != samples[si].Label {
				t.Errorf("record %d sample %d: (%d,%d), want (%d,%d)",
					r, i, ids[i], labels[i], samples[si].ID, samples[si].Label)
			}
			si++
		}
	}
}

// An all-selected range plan must coalesce to exactly the prefix read the
// unfiltered path would issue, at every quality level.
func TestSampleRangesAllSelectedIsThePrefix(t *testing.T) {
	ds, _ := buildIndexedDataset(t)
	for r := 0; r < ds.NumRecords(); r++ {
		n := ds.records[r].Samples
		sel := make([]bool, n)
		for i := range sel {
			sel[i] = true
		}
		for g := 1; g <= ds.NumGroups; g++ {
			ranges, err := ds.SampleRanges(r, g, sel)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ds.RecordPrefixLen(r, g)
			if err != nil {
				t.Fatal(err)
			}
			if len(ranges) != 1 || ranges[0].Offset != 0 || ranges[0].Length != want {
				t.Fatalf("record %d group %d: ranges %v, want one [0,%d)", r, g, ranges, want)
			}
		}
	}
}

// A subset plan gathered from the record bytes and scattered back into a
// sparse prefix must decode every selected sample identically to the full
// prefix — the byte-level property the filtered read path stands on.
func TestSampleRangesSparseDecode(t *testing.T) {
	ds, _ := buildIndexedDataset(t)
	r := 0
	n := ds.records[r].Samples
	sel := make([]bool, n)
	sel[0], sel[n-1] = true, true
	for _, g := range []int{1, 5, ds.NumGroups} {
		full, fullMeta, err := readPrefix(ds, r, g)
		if err != nil {
			t.Fatal(err)
		}
		ranges, err := ds.SampleRanges(r, g, sel)
		if err != nil {
			t.Fatal(err)
		}
		total := RangesTotal(ranges)
		if total >= int64(len(full)) {
			t.Fatalf("group %d: subset plan %d bytes, full prefix %d", g, total, len(full))
		}
		concat, err := GatherRanges(nil, full, ranges)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(concat)) != total {
			t.Fatalf("group %d: gathered %d bytes, want %d", g, len(concat), total)
		}
		sparse, err := ScatterRanges(concat, ranges, int64(len(full)))
		if err != nil {
			t.Fatal(err)
		}
		meta, err := ParseRecordMeta(sparse)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sel {
			if !sel[i] {
				continue
			}
			got, err := meta.SampleJPEG(sparse, i, g)
			if err != nil {
				t.Fatalf("group %d sample %d: %v", g, i, err)
			}
			want, err := fullMeta.SampleJPEG(full, i, g)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("group %d sample %d: sparse stream differs from full", g, i)
			}
		}
	}
}

// kvEntry spells a record entry the way DatasetWriter.flush puts it in the
// metadata database, leaving out the side-index fields when it has none.
func kvEntry(re RecordInfo) []byte {
	enc := wire.NewEncoder(nil)
	enc.String(1, re.Name)
	enc.Uint64(2, uint64(re.Samples))
	for f, vs := range [][]int64{re.Prefixes, re.SampleIDs, re.SampleLabels, re.SampleGroupLens} {
		if f > 0 && vs == nil {
			continue
		}
		us := make([]uint64, len(vs))
		for i, v := range vs {
			us[i] = uint64(v)
		}
		enc.PackedUint64(3+f, us)
	}
	return enc.Encode()
}

// decodeStored parses ix as the metadata database stores it: a dataset
// header, and kvEntry's spelling of each record under its key.
func decodeStored(ix *Index) error {
	stored := make(map[string][]byte)
	for r, re := range ix.Records {
		stored[recordKey(r)] = kvEntry(re)
	}
	_, err := decodeIndex(encodeHeader(len(ix.Records), ix.NumGroups, ix.NumImages).Encode(), stored)
	return err
}

// The side index is part of the format: an index, a caller's Index and a
// metadata-database entry that name a record without it are all refused as
// corrupt, and the writer's own entries spell exactly what kvEntry does.
func TestSampleIndexRequired(t *testing.T) {
	ds, _ := buildIndexedDataset(t)
	ix := ds.Index()
	kv, err := kvstore.Load(filepath.Join(ds.backend.(*DirBackend).dir, "meta"))
	if err != nil {
		t.Fatal(err)
	}
	for r, re := range ix.Records {
		if raw := kv[fmt.Sprintf("record/%05d", r)]; !bytes.Equal(raw, kvEntry(re)) {
			t.Fatalf("record %d: kvEntry does not spell the entry the writer stored", r)
		}
	}
	if err := decodeStored(ix); err != nil {
		t.Fatalf("the writer's own entries: %v", err)
	}
	ix.Records[1].SampleIDs, ix.Records[1].SampleLabels, ix.Records[1].SampleGroupLens = nil, nil, nil
	data, err := EncodeIndex(ix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseIndex(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ParseIndex of an index without the side index: %v, want ErrCorrupt", err)
	}
	if _, err := OpenDatasetIndex(ix, NewDirBackend(t.TempDir())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenDatasetIndex of an index without the side index: %v, want ErrCorrupt", err)
	}
	if err := decodeStored(ix); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("metadata database entries without the side index: %v, want ErrCorrupt", err)
	}
}

// The encoding of a conforming index has not moved: the fingerprint of the
// seeded dataset above is the SHA-256 of its /index document, the dataset
// header with the metadata database's record entries inline. A disk tier
// keys its entries by this fingerprint, so a change here orphans every warm
// disk cache: Wrap discards entries of another generation on open.
func TestIndexFingerprintPinned(t *testing.T) {
	ds, _ := buildIndexedDataset(t)
	got, err := IndexFingerprint(ds.Index())
	if err != nil {
		t.Fatal(err)
	}
	if want := "f5eba2c8e152ed5cddacaea244986036"; got != want {
		t.Fatalf("IndexFingerprint = %s, want %s", got, want)
	}
}

// The side index survives the /index document: an index exported, encoded,
// parsed, and mounted over a DirBackend plans the same ranges as the local
// dataset.
func TestSampleIndexSurvivesIndexWire(t *testing.T) {
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
	remote, err := OpenDatasetIndex(ix, NewDirBackend(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	sel := []bool{true, false, true, false}
	for r := 0; r < local.NumRecords(); r++ {
		n := local.records[r].Samples
		want, err := local.SampleRanges(r, 2, sel[:n])
		if err != nil {
			t.Fatal(err)
		}
		got, err := remote.SampleRanges(r, 2, sel[:n])
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("record %d: %v != %v", r, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("record %d: %v != %v", r, got, want)
			}
		}
	}
}

// corruptEntries are ways to damage the first record entry of
// buildIndexedDataset's index (four samples, several groups) that every
// parser of an entry must refuse; FuzzParseIndex starts from them too.
var corruptEntries = []struct {
	name string
	mut  func(re *RecordInfo)
}{
	{"ids length", func(re *RecordInfo) { re.SampleIDs = re.SampleIDs[:len(re.SampleIDs)-1] }},
	{"labels length", func(re *RecordInfo) { re.SampleLabels = append(re.SampleLabels, 9) }},
	{"lens length", func(re *RecordInfo) { re.SampleGroupLens = re.SampleGroupLens[:len(re.SampleGroupLens)-1] }},
	{"negative len", func(re *RecordInfo) { re.SampleGroupLens[0] = -1 }},
	{"sum mismatch", func(re *RecordInfo) {
		// Group 1's lengths past its prefix delta: more than the group
		// holds, whatever its preamble.
		re.SampleGroupLens[0] += re.Prefixes[1] - re.Prefixes[0]
	}},
	{"lengths wrap to the sum", func(re *RecordInfo) {
		// Group 1 of four samples: every length non-negative, and a sum
		// that is the prefix delta plus 2^64.
		ng := len(re.Prefixes) - 1
		lens := re.SampleGroupLens
		lens[2*ng] += lens[0] + lens[ng] + 2
		lens[0], lens[ng] = math.MaxInt64, math.MaxInt64
	}},
	{"negative samples", func(re *RecordInfo) { re.Samples = -re.Samples }},
	{"negative metadata prefix", func(re *RecordInfo) {
		// Every delta intact, so the side index still sums: only the
		// sign of the first prefix gives it away.
		shift := re.Prefixes[0] + 5
		for g := range re.Prefixes {
			re.Prefixes[g] -= shift
		}
	}},
	{"prefix delta wraps", func(re *RecordInfo) {
		// The last prefix so far below the one before it that their
		// difference wraps round to the delta the lengths sum to; the
		// group before absorbs the jump honestly, in one length.
		ng := len(re.Prefixes) - 1
		delta := re.Prefixes[ng] - re.Prefixes[ng-1]
		re.SampleGroupLens[ng-2] += math.MaxInt64 - re.Prefixes[ng-1]
		re.Prefixes[ng-1] = math.MaxInt64
		re.Prefixes[ng] = math.MinInt64 + delta - 1
	}},
}

// cloneEntry copies a record entry deeply enough to damage the copy.
func cloneEntry(re RecordInfo) RecordInfo {
	re.Prefixes = append([]int64(nil), re.Prefixes...)
	re.SampleIDs = append([]int64(nil), re.SampleIDs...)
	re.SampleLabels = append([]int64(nil), re.SampleLabels...)
	re.SampleGroupLens = append([]int64(nil), re.SampleGroupLens...)
	return re
}

// Corrupt record entries must be rejected at parse time, not discovered as
// bogus reads later — whichever way the entry arrives: an /index document, a
// caller's Index, or the metadata database.
func TestParseIndexRejectsCorruptSampleIndex(t *testing.T) {
	ds, _ := buildIndexedDataset(t)
	base := ds.Index()
	for _, tc := range corruptEntries {
		t.Run(tc.name, func(t *testing.T) {
			ix := &Index{NumGroups: base.NumGroups, NumImages: base.NumImages}
			for _, re := range base.Records {
				ix.Records = append(ix.Records, cloneEntry(re))
			}
			tc.mut(&ix.Records[0])
			data, err := EncodeIndex(ix)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ParseIndex(data); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ParseIndex err = %v, want ErrCorrupt", err)
			}
			if _, err := OpenDatasetIndex(ix, NewDirBackend(t.TempDir())); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenDatasetIndex err = %v, want ErrCorrupt", err)
			}
			if err := decodeStored(ix); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("metadata database entries: err = %v, want ErrCorrupt", err)
			}
		})
	}
}
