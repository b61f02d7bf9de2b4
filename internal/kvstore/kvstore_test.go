package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// write opens a writer on dir, puts the pairs in order and closes it.
func write(t *testing.T, dir string, kvs ...string) {
	t.Helper()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(kvs); i += 2 {
		if err := s.Put([]byte(kvs[i]), []byte(kvs[i+1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func load(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	kv, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return kv
}

func equalMaps(got map[string][]byte, want map[string]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("loaded %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		g, ok := got[k]
		if !ok || string(g) != v {
			return fmt.Errorf("key %q = %q (present %v), want %q", k, g, ok, v)
		}
	}
	return nil
}

// snapshot is every file under dir by name, with its bytes.
func snapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

func sameFiles(t *testing.T, before, after map[string]string) {
	t.Helper()
	if len(before) != len(after) {
		t.Fatalf("%d files before, %d after", len(before), len(after))
	}
	for name, data := range before {
		if after[name] != data {
			t.Fatalf("%s changed: %d bytes before, %d after", name, len(data), len(after[name]))
		}
	}
}

func TestEmptyValuesAndKeys(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "empty", "", "", "keyless")
	if err := equalMaps(load(t, dir), map[string]string{"empty": "", "": "keyless"}); err != nil {
		t.Fatal(err)
	}
}

// TestReopenRecoversState writes a store with overwrites through three
// writers, one segment each, and loads it with the last write winning across
// segments as well as within one.
func TestReopenRecoversState(t *testing.T) {
	dir := t.TempDir()
	want := map[string]string{}
	for w := 0; w < 3; w++ {
		s, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("key-%03d", (i*7+w*31)%100)
			v := fmt.Sprintf("val-%d-%d", w, i)
			want[k] = v
			if err := s.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := equalMaps(load(t, dir), want); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentRotation: segments rotate at Open, not by size. Each writer
// appends to a fresh segment after the newest and leaves the older ones
// byte-identical, an empty writer included.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a", "1")
	first := snapshot(t, dir)
	write(t, dir, "a", "2", "b", "1")
	write(t, dir)
	if segs, err := listSegments(dir); err != nil || len(segs) != 3 || segs[2] != 3 {
		t.Fatalf("segments = %v, %v; want 1, 2, 3", segs, err)
	}
	if now := snapshot(t, dir); now[segName(1)] != first[segName(1)] {
		t.Fatal("a later writer changed the first segment")
	}
	if err := equalMaps(load(t, dir), map[string]string{"a": "2", "b": "1"}); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailRecovered: a short record at the end of the newest segment (a
// crash mid-append) is ignored by Load, which leaves it on disk, and
// truncated by the next writer.
func TestTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a", "1", "b", "2")
	seg := filepath.Join(dir, segName(1))
	clean, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), clean...), encodeRecord([]byte("c"), []byte("3"))[:headerSize+1]...)
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	before := snapshot(t, dir)
	if err := equalMaps(load(t, dir), map[string]string{"a": "1", "b": "2"}); err != nil {
		t.Fatal(err)
	}
	sameFiles(t, before, snapshot(t, dir))

	write(t, dir, "c", "3")
	if data, _ := os.ReadFile(seg); !bytes.Equal(data, clean) {
		t.Fatalf("writer left the torn segment at %d bytes, want %d", len(data), len(clean))
	}
	if err := equalMaps(load(t, dir), map[string]string{"a": "1", "b": "2", "c": "3"}); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionInSealedSegmentDetected: damage in a segment a later writer
// followed — a flipped byte, or a record cut short — is ErrCorrupt.
func TestCorruptionInSealedSegmentDetected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b }},
		{"cut short", func(b []byte) []byte { return b[:len(b)-3] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			write(t, dir, "k0", "v0", "k1", "v1", "k2", "v2")
			write(t, dir, "k3", "v3")
			first := filepath.Join(dir, segName(1))
			data, err := os.ReadFile(first)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(first, tc.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestCorruptNewestSegmentRefused: a whole record with a bad checksum, or a
// flag set, in the newest segment is ErrCorrupt for Load and for a writer's
// Open, and neither touches the file. (A store that truncated here would
// destroy every entry after the damage.)
func TestCorruptNewestSegmentRefused(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func([]byte)
	}{
		{"flipped byte", func(b []byte) { b[len(b)-2] ^= 0xFF }},
		{"flag set", func(b []byte) {
			b[4] = 1
			n := headerSize + len("a") + len("1")
			putCRC(b[:n])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			write(t, dir, "a", "1", "key-b", "value-b")
			seg := filepath.Join(dir, segName(1))
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(data)
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
			before := snapshot(t, dir)
			if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load = %v, want ErrCorrupt", err)
			}
			if s, err := Open(dir, nil); !errors.Is(err, ErrCorrupt) {
				if err == nil {
					s.Close()
				}
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
			sameFiles(t, before, snapshot(t, dir))
		})
	}
}

func putCRC(rec []byte) {
	binary.LittleEndian.PutUint32(rec, crc32.Checksum(rec[4:], castagnoli))
}

// TestLoadMissingDir: a store that was never written is fs.ErrNotExist, and
// loading it creates nothing.
func TestLoadMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "meta")
	if _, err := Load(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Load(missing) = %v, want fs.ErrNotExist", err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Load created %s (stat: %v)", dir, err)
	}
}

// TestConcurrentAccess: Puts from several goroutines all land whole.
func TestConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]map[string]string, 8)
	var wg sync.WaitGroup
	for g := range want {
		want[g] = map[string]string{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("g%d-k%d", g, rng.Intn(50))
				v := fmt.Sprintf("%d", i)
				if err := s.Put([]byte(k), []byte(v)); err != nil {
					t.Error(err)
					return
				}
				want[g][k] = v
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	all := map[string]string{}
	for _, m := range want {
		for k, v := range m {
			all[k] = v
		}
	}
	if err := equalMaps(load(t, dir), all); err != nil {
		t.Fatal(err)
	}
}

func TestClosedStoreRejectsOps(t *testing.T) {
	s, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("v")); err == nil {
		t.Error("Put on closed store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}
