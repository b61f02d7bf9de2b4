package diskcache

import (
	"bytes"
	"os"
	"runtime"
	"testing"
)

// FuzzDiskCacheRecovery hands open two arbitrary data files, header bytes
// included (for records/a.pcr and records/b.pcr), then reads every upstream
// object at several windows. Whatever the directory held: nothing panics, a
// successful read returns exactly the upstream's bytes, Recovered +
// Discarded never exceeds the number of data files, and nothing allocates
// from an extent the file on disk does not back.
func FuzzDiskCacheRecovery(f *testing.F) {
	f.Fuzz(func(t *testing.T, fileA, fileB []byte) {
		dir := t.TempDir()
		at := &Backend{dir: dir}
		for path, data := range map[string][]byte{
			at.objectFile("records/a.pcr"): fileA,
			at.objectFile("records/b.pcr"): fileB,
		} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		inner := newFake()
		b, err := Wrap(inner, dir, 1<<20, "gen1")
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		checkCounts := func() {
			t.Helper()
			if st := b.Stats(); st.Recovered < 0 || st.Recovered+st.Discarded > 2 {
				t.Fatalf("stats %+v out of bounds for 2 data files", st)
			}
		}
		checkCounts()
		for _, name := range []string{"records/a.pcr", "records/b.pcr", "records/c.pcr"} {
			want := inner.objects[name]
			n := int64(len(want))
			// Inside a seed's cached extent first (served by the first-touch
			// pass), then the fast path, then upgrades past it.
			for _, w := range [][2]int64{{57, 100}, {0, 1}, {0, 200}, {150, 300}, {0, n}, {n - 1, 1}} {
				got, err := b.ReadRange(name, w[0], w[1])
				if err == nil && !bytes.Equal(got, want[w[0]:w[0]+w[1]]) {
					t.Fatalf("ReadRange(%s, %d, %d) served bytes the upstream does not hold", name, w[0], w[1])
				}
				checkCounts()
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Fatalf("recovery and reads allocated %d bytes", grew)
		}
	})
}
