package kvstore

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// FuzzKVStoreLoad writes arbitrary bytes as a store's only segment, or as
// the first of two, and loads it. The oracle: nothing panics; Load leaves
// every file byte-identical; it returns a map or an ErrCorrupt; a map, put
// through a fresh writer, loads back equal; and a writer opened on the
// fuzzed store (truncating a torn tail) changes nothing Load returns.
//
// Seeds in testdata/fuzz: a clean store, two segments overwriting a key, a
// torn tail, a flipped CRC, a header claiming a 4 GiB key ahead of a clean
// segment, and an empty file.
func FuzzKVStoreLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, first, second []byte, two bool) {
		dir := t.TempDir()
		segs := [][]byte{first}
		if two {
			segs = append(segs, second)
		}
		for i, data := range segs {
			if err := os.WriteFile(filepath.Join(dir, segName(i+1)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		kv, err := Load(dir)
		for i, data := range segs {
			after, rerr := os.ReadFile(filepath.Join(dir, segName(i+1)))
			if rerr != nil || string(after) != string(data) {
				t.Fatalf("Load changed segment %d (%v)", i+1, rerr)
			}
		}
		if entries, _ := os.ReadDir(dir); len(entries) != len(segs) {
			t.Fatalf("Load left %d files, want %d", len(entries), len(segs))
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load = %v, want a map or ErrCorrupt", err)
			}
			return
		}
		if kv == nil {
			t.Fatal("Load returned neither a map nor an error")
		}
		want := make(map[string]string, len(kv))
		for k, v := range kv {
			want[k] = string(v)
		}

		fresh := t.TempDir()
		keys := make([]string, 0, len(want))
		for k := range want {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var pairs []string
		for _, k := range keys {
			pairs = append(pairs, k, want[k])
		}
		write(t, fresh, pairs...)
		if err := equalMaps(load(t, fresh), want); err != nil {
			t.Fatalf("map re-put through a writer: %v", err)
		}

		write(t, dir)
		if err := equalMaps(load(t, dir), want); err != nil {
			t.Fatalf("after a writer opened the store: %v", err)
		}
	})
}
