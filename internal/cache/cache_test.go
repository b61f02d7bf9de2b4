package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// backing simulates record files of a fixed size with byte values derived
// from (record, offset) so slices are verifiable.
type backing struct {
	mu      sync.Mutex
	fetches int64
	bytes   int64
}

func (bk *backing) fetch(record int, offset, length int64) ([]byte, error) {
	bk.mu.Lock()
	defer bk.mu.Unlock()
	bk.fetches++
	bk.bytes += length
	out := make([]byte, length)
	for i := range out {
		out[i] = byte(record*31 + int(offset) + i)
	}
	return out, nil
}

func wantBytes(record int, n int64) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(record*31 + i)
	}
	return out
}

func TestMissThenHit(t *testing.T) {
	bk := &backing{}
	c, err := New(1<<20, bk.fetch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes(3, 100)) {
		t.Fatal("wrong bytes on miss")
	}
	got, err = c.Get(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes(3, 100)) {
		t.Fatal("wrong bytes on hit")
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.UpgradeHits != 0 {
		t.Errorf("stats = %+v", s)
	}
	if bk.bytes != 100 {
		t.Errorf("backing read %d bytes, want 100", bk.bytes)
	}
}

func TestUpgradeReadsOnlyDelta(t *testing.T) {
	bk := &backing{}
	c, _ := New(1<<20, bk.fetch)
	// Read at scan group ~2 (say 100 bytes), then upgrade to ~5 (300).
	if _, err := c.Get(7, 100); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes(7, 300)) {
		t.Fatal("upgrade returned wrong bytes")
	}
	if bk.bytes != 300 {
		t.Errorf("backing read %d bytes total, want 300 (100 + 200 delta)", bk.bytes)
	}
	s := c.Stats()
	if s.UpgradeHits != 1 {
		t.Errorf("stats = %+v", s)
	}
	// Downgrade request after upgrade is a pure hit.
	if _, err := c.Get(7, 50); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Hits != 1 {
		t.Errorf("downgrade not a hit: %+v", c.Stats())
	}
}

func TestLRUEviction(t *testing.T) {
	bk := &backing{}
	c, _ := New(250, bk.fetch)
	for r := 0; r < 3; r++ {
		if _, err := c.Get(r, 100); err != nil {
			t.Fatal(err)
		}
	}
	// Budget 250 holds two 100-byte entries; record 0 must be evicted.
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Contains(0, 1) {
		t.Error("record 0 not evicted")
	}
	if !c.Contains(2, 100) || !c.Contains(1, 100) {
		t.Error("recent records evicted")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
	// Touch record 1, add record 3: record 2 is now LRU and evicted.
	if _, err := c.Get(1, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(3, 100); err != nil {
		t.Fatal(err)
	}
	if c.Contains(2, 1) {
		t.Error("LRU order not respected")
	}
	if !c.Contains(1, 100) {
		t.Error("recently touched record evicted")
	}
}

func TestOversizedEntryKept(t *testing.T) {
	bk := &backing{}
	c, _ := New(100, bk.fetch)
	got, err := c.Get(1, 500) // bigger than the whole budget
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatal("oversized read truncated")
	}
	// The just-served entry must survive (callers hold the slice anyway).
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

// TestFetchErrorPropagates: a cold fill and an upgrade whose fetch fails,
// comes up short or panics — in a Cache built by New and in a Stack's
// memory tier, which lends — fail the read that filled, with an error
// naming the fault, and leave the tier as they found it: Len, UsedBytes and
// Stats unchanged while the read that waited on the fill refills the record
// itself, that read and the next one the store's bytes.
func TestFetchErrorPropagates(t *testing.T) {
	for _, tier := range []string{"New", "Stack"} {
		for _, kind := range []string{"error", "short", "panic"} {
			t.Run(tier+"/"+kind, func(t *testing.T) {
				f := &faulty{kind: kind}
				var c *Cache
				var read func(rec int, n int64) ([]byte, error)
				if tier == "New" {
					bk := &backing{}
					c, _ = New(1<<20, func(rec int, off, n int64) ([]byte, error) {
						return f.read(func() ([]byte, error) { return bk.fetch(rec, off, n) })
					})
					read = c.Get
				} else {
					sizes := []int64{1000, 1000, 1000}
					s := newStackOver(t, faultyRecords{records{sizes}, f}, sizes, 1<<20, "")
					c = s.mem
					read = func(rec int, n int64) ([]byte, error) {
						b, err := s.Read(rec, 0, n)
						defer s.Release(b)
						return bytes.Clone(b), err
					}
				}
				for rec := range 2 {
					if _, err := read(rec, 300); err != nil {
						t.Fatal(err)
					}
				}

				for _, fill := range []struct {
					rec        int
					have, want int64
				}{{2, 0, 600}, {1, 300, 600}} {
					n0, used0, st0 := c.Len(), c.UsedBytes(), c.Stats()
					f.arm()
					failed, waited := make(chan error, 1), make(chan error, 1)
					go func() {
						_, err := read(fill.rec, fill.want)
						failed <- err
					}()
					<-f.entered
					go func() {
						got, err := read(fill.rec, fill.want)
						if err == nil && !bytes.Equal(got, wantBytes(fill.rec, fill.want)) {
							err = fmt.Errorf("the read that waited on %d returned wrong bytes", fill.rec)
						}
						waited <- err
					}()
					parked(t)
					close(f.release)
					wantErr := map[string]string{
						"error": "store fault",
						"short": fmt.Sprintf("cache: fetcher returned %d bytes, want %d", fill.want-fill.have-1, fill.want-fill.have),
						"panic": fmt.Sprintf("cache: fill of %d panicked: store fault", fill.rec),
					}[kind]
					if err := <-failed; err == nil || err.Error() != wantErr {
						t.Fatalf("the fill of %d failed with %v, want %q", fill.rec, err, wantErr)
					}
					await(t, f.refetch, "the read that waited never refilled")
					if n, used, st := c.Len(), c.UsedBytes(), c.Stats(); n != n0 || used != used0 || st != st0 {
						t.Fatalf("after the failed fill of %d: len %d, used %d, stats %+v; before it %d, %d, %+v", fill.rec, n, used, st, n0, used0, st0)
					}
					close(f.resume)
					if err := <-waited; err != nil {
						t.Fatal(err)
					}
					got, err := read(fill.rec, fill.want)
					if err != nil || !bytes.Equal(got, wantBytes(fill.rec, fill.want)) {
						t.Fatalf("the next read of %d: %v", fill.rec, err)
					}
				}
			})
		}
	}
}

// faulty injects one fault per arm into a store's reads: the first read
// after arm waits for release and then fails by kind — an error, an answer
// a byte short, or a panic — and the read after it waits for resume, so a
// test can look at a tier between the failed fill and the next one.
type faulty struct {
	kind  string
	calls atomic.Int32 // reads since arm, once armed
	armed atomic.Bool

	entered, release, refetch, resume chan struct{}
}

func (f *faulty) arm() {
	f.entered, f.release = make(chan struct{}), make(chan struct{})
	f.refetch, f.resume = make(chan struct{}), make(chan struct{})
	f.calls.Store(0)
	f.armed.Store(true)
}

// read performs one read through read, faulted as above.
func (f *faulty) read(read func() ([]byte, error)) ([]byte, error) {
	if !f.armed.Load() {
		return read()
	}
	switch f.calls.Add(1) {
	case 1:
		close(f.entered)
		<-f.release
		switch f.kind {
		case "error":
			return nil, errors.New("store fault")
		case "panic":
			panic("store fault")
		}
		b, err := read()
		return b[:len(b)-1], err
	case 2:
		close(f.refetch)
		f.armed.Store(false)
		<-f.resume
	}
	return read()
}

// faultyRecords is records whose reads go through a faulty.
type faultyRecords struct {
	records
	f *faulty
}

func (fr faultyRecords) ReadRangeInto(dst []byte, name string, offset, length int64) ([]byte, error) {
	return fr.f.read(func() ([]byte, error) { return fr.records.ReadRangeInto(dst, name, offset, length) })
}

func (fr faultyRecords) ReadRange(name string, offset, length int64) ([]byte, error) {
	return fr.ReadRangeInto(nil, name, offset, length)
}

// parked waits until a read is blocked on a channel inside the tier, other
// than the faulted read (which blocks in the store): a read waiting on that
// read's fill.
func parked(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if lines := strings.SplitN(g, "\n", 3); len(lines) > 1 && strings.Contains(lines[0], "[chan receive") &&
				strings.HasPrefix(lines[1], "repro/internal/") && !strings.HasPrefix(lines[1], "repro/internal/cache.(*faulty)") {
				return
			}
		}
	}
	t.Fatal("no read waited on the fill")
}

// await fails the test unless ch closes within five seconds.
func await(t *testing.T, ch <-chan struct{}, msg string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal(msg)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(0, func(int, int64, int64) ([]byte, error) { return nil, nil }); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(10, nil); err == nil {
		t.Error("nil fetcher accepted")
	}
	bk := &backing{}
	c, _ := New(10, bk.fetch)
	if _, err := c.Get(1, -1); err == nil {
		t.Error("negative length accepted")
	}
}

// TestCachePressureScenario reproduces the paper's claim: training at scan
// group 2 lets ~5x more records fit in cache than full-quality training,
// and an occasional full-quality consumer pays only delta reads.
func TestCachePressureScenario(t *testing.T) {
	bk := &backing{}
	const records = 100
	const fullLen, scan2Len = 10000, 2000
	// A budget of 50 full records: a full-quality epoch could cache only
	// half the dataset, but the scan-2 working set (100 × 2000 bytes)
	// fits entirely with room for upgrades.
	c, _ := New(50*fullLen, bk.fetch)

	// Scan-2 epoch: every record fits.
	for r := 0; r < records; r++ {
		if _, err := c.Get(r, scan2Len); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != records {
		t.Fatalf("scan-2 epoch: only %d records cached", c.Len())
	}
	// Second scan-2 epoch: all hits, zero backing traffic.
	before := bk.bytes
	for r := 0; r < records; r++ {
		if _, err := c.Get(r, scan2Len); err != nil {
			t.Fatal(err)
		}
	}
	if bk.bytes != before {
		t.Errorf("second epoch fetched %d bytes, want 0", bk.bytes-before)
	}
	// Upgrading 10 records to full quality reads only the deltas.
	before = bk.bytes
	for r := 0; r < 10; r++ {
		if _, err := c.Get(r, fullLen); err != nil {
			t.Fatal(err)
		}
	}
	wantDelta := int64(10 * (fullLen - scan2Len))
	if bk.bytes-before != wantDelta {
		t.Errorf("upgrades fetched %d bytes, want %d", bk.bytes-before, wantDelta)
	}
}

func TestConcurrentGets(t *testing.T) {
	bk := &backing{}
	c, _ := New(1<<20, bk.fetch)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				rec := rng.Intn(10)
				n := int64(rng.Intn(400) + 1)
				got, err := c.Get(rec, n)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, wantBytes(rec, n)) {
					errs <- fmt.Errorf("bad bytes for rec %d len %d", rec, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFetchesOverlapAcrossRecords: a slow fetch of one record must not
// block a Get for a different record — the global lock is not held across
// backing I/O.
func TestFetchesOverlapAcrossRecords(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	fetch := func(record int, offset, length int64) ([]byte, error) {
		if record == 1 {
			close(entered)
			<-release // block record 1's fetch until told otherwise
		}
		out := make([]byte, length)
		for i := range out {
			out[i] = byte(record*31 + int(offset) + i)
		}
		return out, nil
	}
	c, err := New(1<<20, fetch)
	if err != nil {
		t.Fatal(err)
	}

	done1 := make(chan struct{})
	go func() {
		defer close(done1)
		if _, err := c.Get(1, 64); err != nil {
			t.Error(err)
		}
	}()
	<-entered // record 1 is mid-fetch

	// A Get for another record must complete while record 1 is stuck.
	done2 := make(chan struct{})
	go func() {
		defer close(done2)
		got, err := c.Get(2, 32)
		if err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, wantBytes(2, 32)) {
			t.Error("record 2 bytes wrong")
		}
	}()
	select {
	case <-done2:
	case <-done1:
		t.Fatal("record 1 finished while its fetch should be blocked")
	}
	close(release)
	<-done1
	if !c.Contains(1, 64) {
		t.Fatal("record 1 not cached after its fetch completed")
	}
}

// TestDuplicateGetsCoalesce: concurrent Gets for the same cold record
// perform one backing fetch, not N.
func TestDuplicateGetsCoalesce(t *testing.T) {
	bk := &backing{}
	c, err := New(1<<20, bk.fetch)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.Get(7, 128)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, wantBytes(7, 128)) {
				t.Error("wrong bytes")
			}
		}()
	}
	wg.Wait()
	bk.mu.Lock()
	fetches := bk.fetches
	bk.mu.Unlock()
	if fetches != 1 {
		t.Fatalf("%d backing fetches for 8 identical Gets, want 1", fetches)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 7 {
		t.Fatalf("stats = %+v, want 1 miss and 7 hits", st)
	}
}

// TestUpgradePinnedUnderEvictionPressure: while record 1's delta is being
// fetched, reads of other records push the cache over budget. The record
// being upgraded is pinned, so another entry is evicted instead and the
// upgrade extends the prefix it started from: one upgrade hit, exactly the
// delta fetched.
func TestUpgradePinnedUnderEvictionPressure(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	bk := &backing{}
	fetch := func(record int, offset, length int64) ([]byte, error) {
		if record == 1 && offset > 0 {
			close(entered)
			<-release
		}
		return bk.fetch(record, offset, length)
	}
	c, err := New(400, fetch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(1, 100); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()

	upgraded := make(chan error, 1)
	go func() {
		got, err := c.Get(1, 150)
		if err == nil && !bytes.Equal(got, wantBytes(1, 150)) {
			err = fmt.Errorf("upgrade returned wrong bytes")
		}
		upgraded <- err
	}()
	<-entered // record 1 is mid-upgrade and LRU-last
	for r := 2; r <= 5; r++ {
		if _, err := c.Get(r, 100); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Contains(1, 100) {
		t.Error("record 1 evicted while its upgrade was in flight")
	}
	if c.Contains(2, 1) {
		t.Error("record 2 not evicted in record 1's place")
	}
	close(release)
	if err := <-upgraded; err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.UpgradeHits-before.UpgradeHits != 1 || st.Misses-before.Misses != 4 {
		t.Fatalf("stats = %+v, want 1 upgrade hit and 4 misses since %+v", st, before)
	}
	if got := st.BytesFetched - before.BytesFetched; got != 4*100+50 {
		t.Fatalf("fetched %d bytes, want 450 (four misses and the 50-byte delta)", got)
	}
	if st.Evictions == 0 || !c.Contains(1, 150) {
		t.Fatalf("evictions = %d, record 1 cached at 150: %v", st.Evictions, c.Contains(1, 150))
	}
	if used := c.UsedBytes(); used > 400 {
		t.Fatalf("used = %d > capacity 400 with nothing in flight", used)
	}
}

// TestUpgradeOfLRUBackEnforcesBudget: upgrading the record at the LRU back
// must still evict other entries to hold the byte budget — the grown entry
// moves to the front before eviction runs.
func TestUpgradeOfLRUBackEnforcesBudget(t *testing.T) {
	bk := &backing{}
	c, err := New(100, bk.fetch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(1, 60); err != nil { // record 1 cached, 60 bytes
		t.Fatal(err)
	}
	if _, err := c.Get(2, 30); err != nil { // record 2 cached; record 1 is LRU-back
		t.Fatal(err)
	}
	if _, err := c.Get(1, 80); err != nil { // upgrade the back record: 110 > 100
		t.Fatal(err)
	}
	if used := c.UsedBytes(); used > 100 {
		t.Fatalf("cache over budget after upgrading the LRU-back record: used=%d > capacity=100", used)
	}
	if c.Contains(2, 1) {
		t.Fatal("record 2 should have been evicted to fit record 1's upgrade")
	}
	if !c.Contains(1, 80) {
		t.Fatal("upgraded record 1 missing")
	}
}
