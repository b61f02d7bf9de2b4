package kvstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestModelBasedRandomOps drives the store with random sequences of puts,
// writer reopens and crashes mid-append, and checks every Load against a
// plain map model.
func TestModelBasedRandomOps(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) * 977))
			dir := t.TempDir()
			s, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			newest := 1

			model := map[string]string{}
			for op := 0; op < 600; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4, 5: // put
					k := fmt.Sprintf("key-%02d", rng.Intn(30))
					v := make([]byte, rng.Intn(100))
					rng.Read(v)
					if err := s.Put([]byte(k), v); err != nil {
						t.Fatalf("op %d: put: %v", op, err)
					}
					model[k] = string(v)
				case 6, 7: // load beside the open writer
					if err := equalMaps(load(t, dir), model); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				case 8: // close and reopen the writer
					if err := s.Close(); err != nil {
						t.Fatalf("op %d: close: %v", op, err)
					}
					if s, err = Open(dir, nil); err != nil {
						t.Fatalf("op %d: reopen: %v", op, err)
					}
					newest++
				case 9: // crash mid-append, load, then reopen
					rec := encodeRecord([]byte("torn"), []byte("never written"))
					f, err := os.OpenFile(filepath.Join(dir, segName(newest)), os.O_APPEND|os.O_WRONLY, 0)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.Write(rec[:rng.Intn(len(rec))]); err != nil {
						t.Fatal(err)
					}
					f.Close()
					s.Close()
					if err := equalMaps(load(t, dir), model); err != nil {
						t.Fatalf("op %d: after crash: %v", op, err)
					}
					if s, err = Open(dir, nil); err != nil {
						t.Fatalf("op %d: reopen after crash: %v", op, err)
					}
					newest++
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := equalMaps(load(t, dir), model); err != nil {
				t.Fatalf("final: %v", err)
			}
		})
	}
}
