package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/kvstore"
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
