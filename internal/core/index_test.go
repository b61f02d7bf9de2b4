package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/wire"
)

// An index whose counts contradict its records is corrupt, however it
// arrives: an /index document, a caller's Index, or the metadata database.
// A shard view's quality count may exceed its own records' groups.
func TestIndexCountsChecked(t *testing.T) {
	ds, _ := buildIndexedDataset(t)
	base := ds.Index()
	for _, tc := range []struct {
		name           string
		images, groups int
	}{
		{"images 2^40", 1 << 40, base.NumGroups},
		{"images one short", base.NumImages - 1, base.NumGroups},
		{"no groups", base.NumImages, 0},
		{"negative groups", base.NumImages, -3},
		{"groups below a record's", base.NumImages, base.NumGroups - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := *base
			ix.NumImages, ix.NumGroups = tc.images, tc.groups
			data, err := EncodeIndex(&ix)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ParseIndex(data); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ParseIndex err = %v, want ErrCorrupt", err)
			}
			if _, err := OpenDatasetIndex(&ix, NewDirBackend(t.TempDir())); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenDatasetIndex err = %v, want ErrCorrupt", err)
			}
			// The same counts written over a real dataset's metadata (the
			// last write of a key wins).
			dir := t.TempDir()
			w, err := CreateDataset(dir, &DatasetOptions{ImagesPerRecord: 4})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range buildSamples(t, 10) {
				if err := w.Append(s); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			kv, err := kvstore.Open(filepath.Join(dir, "meta"), nil)
			if err != nil {
				t.Fatal(err)
			}
			enc := wire.NewEncoder(nil)
			enc.Uint64(1, uint64(len(ix.Records)))
			enc.Uint64(2, uint64(tc.groups))
			enc.Uint64(3, uint64(tc.images))
			if err := kv.Put([]byte("dataset"), enc.Encode()); err != nil {
				t.Fatal(err)
			}
			if err := kv.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenDataset(dir); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenDataset err = %v, want ErrCorrupt", err)
			}
		})
	}
	view := base.Shard(1, 2)
	view.NumGroups += 4
	if _, err := OpenDatasetIndex(view, NewDirBackend(t.TempDir())); err != nil {
		t.Fatalf("an index counting more quality levels than its records store: %v", err)
	}
}

// Shard is the stride partition: shards are disjoint, cover the index in
// storage order, count their own images and the whole index's quality
// levels, and a view opened over a backend encodes to the same bytes as
// the view itself (what a server sends for /index?shard=i&nshards=n).
func TestIndexShard(t *testing.T) {
	ds, _ := buildIndexedDataset(t)
	whole := ds.Index()
	if got := whole.Shard(0, 1); got.NumImages != whole.NumImages || len(got.Records) != len(whole.Records) {
		t.Fatalf("shard 0 of 1 = %d records, %d images; want the whole index", len(got.Records), got.NumImages)
	}
	const n = 3
	seen := 0
	for i := 0; i < n; i++ {
		view := whole.Shard(i, n)
		images := 0
		for k, re := range view.Records {
			if want := whole.Records[i+k*n].Name; re.Name != want {
				t.Fatalf("shard %d record %d = %s, want %s", i, k, re.Name, want)
			}
			images += re.Samples
		}
		seen += len(view.Records)
		if view.NumImages != images || view.NumGroups != whole.NumGroups {
			t.Fatalf("shard %d counts %d images, %d groups; want %d, %d", i, view.NumImages, view.NumGroups, images, whole.NumGroups)
		}
		sub, err := OpenDatasetIndex(view, ds.Backend())
		if err != nil {
			t.Fatal(err)
		}
		local, err := EncodeIndex(sub.Index())
		if err != nil {
			t.Fatal(err)
		}
		served, err := EncodeIndex(view)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(local, served) {
			t.Fatalf("shard %d: the opened view encodes differently from the served one", i)
		}
	}
	if seen != len(whole.Records) {
		t.Fatalf("%d shards hold %d records, want %d", n, seen, len(whole.Records))
	}
}

// paperScaleIndex is a synthetic index at the paper's ImageNet scale: 1 250
// records of 1 024 samples in 10 scan groups, 1.28 M samples in all, with
// lengths of two and three varint bytes and IDs numbered through.
func paperScaleIndex() *Index {
	const records, samples, groups = 1250, 1024, 10
	ix := &Index{NumGroups: groups, NumImages: records * samples}
	for r := 0; r < records; r++ {
		re := RecordInfo{Name: fmt.Sprintf("record-%05d.pcr", r), Samples: samples, Prefixes: make([]int64, groups+1)}
		re.Prefixes[0] = 4096
		lens := make([]int64, samples*groups)
		for i := range samples {
			re.SampleIDs = append(re.SampleIDs, int64(r*samples+i))
			re.SampleLabels = append(re.SampleLabels, int64((r*samples+i)%1000))
			for g := range groups {
				lens[i*groups+g] = int64(100 + (i*31+g*17)%20000)
			}
		}
		for g := 1; g <= groups; g++ {
			re.Prefixes[g] = re.Prefixes[g-1] + 600 // the group's preamble
			for i := range samples {
				re.Prefixes[g] += lens[i*groups+g-1]
			}
		}
		re.SampleGroupLens = lens
		ix.Records = append(ix.Records, re)
	}
	return ix
}

// BenchmarkParseIndexPaperScale is what opening a paper-scale dataset
// remotely costs before any record is read: ParseIndex of the /index
// document and IndexFingerprint of the result, the disk tier's generation.
// It reports the document's size.
func BenchmarkParseIndexPaperScale(b *testing.B) {
	doc, err := EncodeIndex(paperScaleIndex())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for range b.N {
		ix, err := ParseIndex(doc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := IndexFingerprint(ix); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(doc))/1e6, "MB/index")
}
