package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/wire"
)

// A corrupt metadata database is structural damage to the dataset:
// OpenDataset must report it as core.ErrCorrupt (the facade contract), not
// leak kvstore's private sentinel unwrapped, and must leave the damaged
// segment as it found it.
func TestOpenDatasetCorruptMetadata(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateDataset(dir, &DatasetOptions{ImagesPerRecord: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range buildSamples(t, 8) {
		if err := w.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the key of the first entry of the only segment.
	segs, err := filepath.Glob(filepath.Join(dir, "meta", "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("metadata segments = %v, %v; want one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 32 {
		t.Fatalf("segment unexpectedly small: %d bytes", len(data))
	}
	data[20] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = OpenDataset(dir)
	if err == nil {
		t.Fatal("OpenDataset succeeded on a corrupt metadata database")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenDataset error %v is not core.ErrCorrupt", err)
	}
	// The kvstore detail stays reachable for diagnostics.
	if !errors.Is(err, kvstore.ErrCorrupt) {
		t.Fatalf("OpenDataset error %v lost the kvstore cause", err)
	}
	after, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatalf("OpenDataset changed the corrupt segment: %d bytes before, %d after", len(data), len(after))
	}
}

// Metadata that decodes short under a valid kvstore CRC is ErrCorrupt too:
// a truncated record entry or dataset header, opened from the metadata
// database, and the same bytes inside an /index document.
func TestTruncatedIndexEntriesCorrupt(t *testing.T) {
	for _, key := range []string{"record/00000", "dataset"} {
		t.Run(key, func(t *testing.T) {
			dir := t.TempDir()
			w, err := CreateDataset(dir, &DatasetOptions{ImagesPerRecord: 4})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range buildSamples(t, 8) {
				if err := w.Append(s); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			kv, err := kvstore.Load(filepath.Join(dir, "meta"))
			if err != nil {
				t.Fatal(err)
			}
			cut := kv[key][:len(kv[key])-1]
			// The last write of a key wins: the truncated value, sealed
			// by its own segment's CRC.
			db, err := kvstore.Open(filepath.Join(dir, "meta"), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Put([]byte(key), cut); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenDataset(dir); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenDataset with %s cut short: %v, want ErrCorrupt", key, err)
			}

			doc := cut
			if key != "dataset" {
				e := wire.NewEncoder(nil)
				e.Uint64(1, 2)
				e.Bytes(4, cut)
				e.Bytes(4, kv["record/00001"])
				doc = e.Encode()
			}
			if _, err := ParseIndex(doc); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ParseIndex of a document holding %s cut short: %v, want ErrCorrupt", key, err)
			}
		})
	}
}
