package cache

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
)

// records is a backend of record objects "r000", "r001", … whose bytes
// follow wantBytes' pattern, readable into a lent buffer.
type records struct{ sizes []int64 }

func (rs records) object(name string) (int, error) {
	var rec int
	if _, err := fmt.Sscanf(name, "r%03d", &rec); err != nil || rec >= len(rs.sizes) {
		return 0, fmt.Errorf("records: no object %q", name)
	}
	return rec, nil
}

func (rs records) ReadRangeInto(dst []byte, name string, offset, length int64) ([]byte, error) {
	rec, err := rs.object(name)
	if err != nil {
		return nil, err
	}
	if offset < 0 || length < 0 || offset+length > rs.sizes[rec] {
		return nil, fmt.Errorf("records: range [%d,%d) of %q: %w", offset, offset+length, name, core.ErrCorrupt)
	}
	out := core.BufferFor(dst, length)
	for i := range out {
		out[i] = byte(rec*31 + int(offset) + i)
	}
	return out, nil
}

func (rs records) ReadRange(name string, offset, length int64) ([]byte, error) {
	return rs.ReadRangeInto(nil, name, offset, length)
}

func (rs records) Open(string) (io.ReadCloser, error) { return nil, fmt.Errorf("records: no Open") }

func (rs records) List() ([]string, error) {
	names := make([]string, len(rs.sizes))
	for i := range names {
		names[i] = fmt.Sprintf("r%03d", i)
	}
	return names, nil
}

func (rs records) Close() error { return nil }

// newTestStack builds a Stack over records of the given whole sizes, each
// with three scan groups ending at 30 %, 60 % and 100 % of it.
func newTestStack(t testing.TB, sizes []int64, memBytes int64, diskDir string) *Stack {
	t.Helper()
	return newStackOver(t, records{sizes}, sizes, memBytes, diskDir)
}

// newStackOver is newTestStack over be, a backend of records of those sizes.
func newStackOver(t testing.TB, be core.Backend, sizes []int64, memBytes int64, diskDir string) *Stack {
	t.Helper()
	ix := &core.Index{NumGroups: 3}
	for i, n := range sizes {
		ix.Records = append(ix.Records, core.RecordInfo{Name: fmt.Sprintf("r%03d", i), Prefixes: []int64{0, n * 3 / 10, n * 6 / 10, n}})
	}
	ds, err := core.OpenDatasetIndex(ix, be)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStack(ds, memBytes, diskDir, 64<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// heldBytes is what the lending tier's cached prefixes occupy: their
// capacities, where the budget counts their lengths.
func (c *Cache) heldBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, e := range c.lent {
		if !e.dropped {
			n += int64(cap(e.prefix))
		}
	}
	return n
}

// onFreeList reports whether b's array is on the stack's free list.
func onFreeList(s *Stack, b []byte) bool {
	for _, f := range s.Free() {
		if cap(f) > 0 && lastByte(f) == lastByte(b) {
			return true
		}
	}
	return false
}

// TestStackLeasesUnderEviction: concurrent reads, upgrades and gathers
// over a memory tier a third the size of the working set, each holding a
// few leases across the others' fills and evictions. Every leased window
// still holds the backing bytes when it is released — a prefix recycled
// while leased would be overwritten by the fill that took it — and the
// tier's buffers stay within twice its budget plus the prefixes in flight.
// A prefix Cache.Get returned, held throughout, never reaches the free list
// and never changes.
func TestStackLeasesUnderEviction(t *testing.T) {
	const workers, steps, maxSize = 4, 400, 4000
	rng := rand.New(rand.NewSource(1))
	sizes := make([]int64, 24)
	var total int64
	for i := range sizes {
		sizes[i] = 1000 + rng.Int63n(maxSize-1000)
		total += sizes[i]
	}
	budget := total / 3
	s := newTestStack(t, sizes, budget, "")
	kept, err := s.mem.Get(5, sizes[5])
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			type lease struct{ got, want []byte }
			var held []lease
			release := func(l lease) bool {
				if !bytes.Equal(l.got, l.want) {
					t.Errorf("a leased window changed before its release")
					return false
				}
				s.Release(l.got)
				return true
			}
			for range steps {
				rec := rng.Intn(len(sizes))
				end := sizes[rec] * int64(3+rng.Intn(8)) / 10
				var l lease
				if rng.Intn(4) == 0 {
					// A gather of two ranges: the head and the tail of the prefix.
					ranges := []core.ByteRange{{Offset: 0, Length: end / 4}, {Offset: end / 2, Length: end - end/2}}
					body, err := s.Gather(rec, 3, nil, ranges)
					if err != nil {
						t.Error(err)
						return
					}
					want := wantBytes(rec, end)
					l = lease{body, append(want[:end/4:end/4], want[end/2:]...)}
				} else {
					off := rng.Int63n(end/2 + 1)
					b, err := s.Read(rec, off, end-off)
					if err != nil {
						t.Error(err)
						return
					}
					l = lease{b, wantBytes(rec, end)[off:]}
				}
				if !bytes.Equal(l.got, l.want) {
					t.Errorf("read of record %d through %d returned wrong bytes", rec, end)
					return
				}
				held = append(held, l)
				if len(held) > 3 {
					if !release(held[0]) {
						return
					}
					held = held[1:]
				}
				if n, most := s.mem.heldBytes(), 2*(budget+workers*4*maxSize); n > most {
					t.Errorf("the tier's prefixes occupy %d bytes, over twice its budget plus the prefixes in flight (%d)", n, most)
					return
				}
			}
			for _, l := range held {
				release(l)
			}
		}()
	}
	wg.Wait()

	st := s.mem.Stats()
	if st.Evictions == 0 || st.UpgradeHits == 0 {
		t.Fatalf("stats %+v: the run should have evicted and upgraded", st)
	}
	if onFreeList(s, kept) || !bytes.Equal(kept, wantBytes(5, sizes[5])) {
		t.Fatal("a prefix Cache.Get returned was recycled")
	}
	if n, most := s.mem.heldBytes(), 2*budget; n > most {
		t.Fatalf("with nothing in flight the tier's prefixes occupy %d bytes, over twice its %d-byte budget", n, budget)
	}
}

// TestStackMemTierCountsAsCache: the lending tier evicts, upgrades and
// counts exactly as a Cache built by New does on the same reads, and its
// recycled buffers occupy at most twice its budget.
func TestStackMemTierCountsAsCache(t *testing.T) {
	sizes := []int64{3000, 5000, 2000, 8000, 4000, 6000, 1000, 7000}
	const budget = 12000
	s := newTestStack(t, sizes, budget, "")
	bk := &backing{}
	ref, err := New(budget, bk.fetch)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for range 300 {
		rec := rng.Intn(len(sizes))
		end := sizes[rec] * int64(3*(1+rng.Intn(3))+1) / 10
		b, err := s.Read(rec, 0, end)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, wantBytes(rec, end)) {
			t.Fatalf("read of record %d through %d returned wrong bytes", rec, end)
		}
		s.Release(b)
		if _, err := ref.Get(rec, end); err != nil {
			t.Fatal(err)
		}
		if n, most := s.mem.heldBytes(), int64(2*budget); n > most {
			t.Fatalf("the tier's prefixes occupy %d bytes, over twice its %d-byte budget", n, budget)
		}
	}
	if got, want := s.mem.Stats(), ref.Stats(); got != want {
		t.Fatalf("lending tier counted %+v, a Cache built by New %+v", got, want)
	}
	if len(s.Free()) == 0 {
		t.Fatal("no evicted prefix reached the free list")
	}
}

// BenchmarkStackScan: sequential whole-record scans of 32 records of
// 64 KiB through a 1 MiB memory tier, which holds half of them, over a warm
// disk tier — every read a memory miss that the disk tier serves. B/op is
// what a pass allocates: with the tier recycling its evicted prefixes,
// next to nothing.
func BenchmarkStackScan(b *testing.B) {
	sizes := make([]int64, 32)
	for i := range sizes {
		sizes[i] = 64 << 10
	}
	s := newTestStack(b, sizes, 1<<20, b.TempDir())
	scan := func() {
		for rec, n := range sizes {
			p, err := s.Read(rec, 0, n)
			if err != nil {
				b.Fatal(err)
			}
			s.Release(p)
		}
	}
	scan() // fills the disk tier
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
	b.SetBytes(32 * 64 << 10)
}

// TestStackMemHitAllocatesNothing: a read the memory tier holds, and its
// Release, allocate nothing.
func TestStackMemHitAllocatesNothing(t *testing.T) {
	s := newTestStack(t, []int64{4000}, 1<<20, "")
	read := func() {
		b, err := s.Read(0, 100, 1100)
		if err != nil {
			t.Fatal(err)
		}
		s.Release(b)
	}
	read()
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Fatalf("a memory-tier hit allocates %.1f times, want 0", n)
	}
}
