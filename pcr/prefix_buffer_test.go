package pcr_test

import (
	"context"
	"crypto/sha256"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/pcr"
)

// TestPipelineReadBuffersNeverAliased: a read beneath the memory tier
// recycles its prefix buffer, and no sample it delivered shares it. Locally,
// over the wire and through a disk tier, concurrent ReadRecordEncoded calls
// at every quality, a ScanEncoded and a Loader.Epoch run at once over one
// dataset, followed by 2×ReadAhead more reads; every sample delivered along
// the way, record 0's first among them, is then still byte for byte what a
// reader that never recycles (one behind a memory tier) delivers — the
// Loader's as they read inside its loop body, since an epoch lends its
// batches whole. The dataset holds more records than are read ahead and
// batched, so that the epoch assembles a batch in a Samples slice it has
// taken back and a read splices into a stream buffer it has handed back,
// which each must do at least once.
func TestPipelineReadBuffersNeverAliased(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(2), pcr.WithScanGroups(4))
	_, ts := startServer(t, dir, nil)
	ctx := context.Background()

	ref, err := pcr.Open(dir, pcr.WithCacheBytes(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	qs := ref.Qualities()
	want := make(map[[2]int64][32]byte) // by quality and ID
	for q := 1; q <= qs; q++ {
		for s, err := range ref.ScanEncoded(ctx, q) {
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int64{int64(q), s.ID}] = sha256.Sum256(s.JPEG)
		}
	}

	for _, variant := range []string{"remote=false", "remote=true", "disk"} {
		t.Run(variant, func(t *testing.T) {
			var ds *pcr.Dataset
			switch variant {
			case "remote=true":
				ds, err = pcr.OpenRemote(ts.URL)
			case "disk":
				ds, err = pcr.Open(dir, pcr.WithDiskCache(t.TempDir(), 64<<20))
			default:
				ds, err = pcr.Open(dir)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()

			type kept struct {
				q    int
				id   int64
				jpeg []byte
			}
			var mu sync.Mutex
			var keep []kept
			keepAll := func(q int, samples []pcr.Sample) {
				mu.Lock()
				defer mu.Unlock()
				for _, s := range samples {
					keep = append(keep, kept{q, s.ID, s.JPEG})
				}
			}
			first, err := ds.ReadRecordEncoded(0, qs)
			if err != nil {
				t.Fatal(err)
			}
			keepAll(qs, first)

			nrec := ds.NumRecords()
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 2*pcr.ReadAhead; i++ {
						q := 1 + (g+i)%qs
						samples, err := ds.ReadRecordEncoded((g+i)%nrec, q)
						if err != nil {
							errs <- err
							return
						}
						keepAll(q, samples)
					}
				}()
			}
			wg.Add(2)
			go func() {
				defer wg.Done()
				for s, err := range ds.ScanEncoded(ctx, qs) {
					if err != nil {
						errs <- err
						return
					}
					keepAll(qs, []pcr.Sample{s})
				}
			}()
			var slicesReused, buffersReused int
			go func() {
				defer wg.Done()
				l, err := pcr.NewLoader(ds, pcr.WithQuality(1), pcr.WithBatchSize(8))
				if err != nil {
					errs <- err
					return
				}
				back := make(map[*byte]bool) // the first byte of each stream buffer handed back
				l.OnRecycleStreams(func(b []byte) { back[&b[0]] = true })
				seen := make(map[*pcr.Sample]bool) // the Samples arrays batches came in
				for b, err := range l.Epoch(ctx, 0) {
					if err != nil {
						errs <- err
						return
					}
					if p := unsafe.SliceData(b.Samples); seen[p] {
						slicesReused++
					} else {
						seen[p] = true
					}
					for _, s := range b.Samples {
						if back[unsafe.SliceData(s.JPEG)] {
							buffersReused++
						}
					}
					// An epoch lends its batches: they are kept as they read
					// inside the loop body.
					keepAll(1, cloneStreams(b.Samples))
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for i := 0; i < 2*pcr.ReadAhead; i++ {
				if _, err := ds.ReadRecordEncoded(i%nrec, qs); err != nil {
					t.Fatal(err)
				}
			}

			for _, k := range keep {
				if sha256.Sum256(k.jpeg) != want[[2]int64{int64(k.q), k.id}] {
					t.Fatalf("sample %d at quality %d no longer reads as delivered", k.id, k.q)
				}
			}
			if slicesReused == 0 || buffersReused == 0 {
				t.Fatalf("the epoch assembled %d batches in a Samples slice it had taken back and spliced %d streams into a buffer it had handed back, want both", slicesReused, buffersReused)
			}
		})
	}
}

// TestPrefixBufferReuse: reads in a row without a memory tier, locally and
// over the wire, read into one backing array — each into the buffer the
// read before it gave back, at its quality or a lower one — and Close drops
// the free list. Through the disk tier alone that holds for a warm read, a
// cold fill and an upgrade alike. The memory tier lends its prefixes: one
// it has evicted goes to the free list once its read is released, and the
// next fill that fits reuses it; one a read still holds stays off the list
// until that read is released.
func TestPrefixBufferReuse(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4))
	_, ts := startServer(t, dir, nil)
	for _, remote := range []bool{false, true} {
		open := func(opts ...pcr.Option) *pcr.Dataset {
			t.Helper()
			var ds *pcr.Dataset
			var err error
			if remote {
				ds, err = pcr.OpenRemote(ts.URL, opts...)
			} else {
				ds, err = pcr.Open(dir, opts...)
			}
			if err != nil {
				t.Fatal(err)
			}
			return ds
		}
		read := func(ds *pcr.Dataset, rec, q int) {
			t.Helper()
			if _, err := ds.ReadRecordEncoded(rec, q); err != nil {
				t.Fatal(err)
			}
		}

		for _, tc := range []struct {
			name string
			opts []pcr.Option
			// then are the reads after the first, each as {record, quality}.
			then [][2]int
		}{
			{"no tier", nil, [][2]int{{0, pcr.Full}, {0, 1}}},
			// Warm at Full and at 1, a cold fill of record 1 at 1, then its
			// upgrade to 2: each read is smaller than record 0 at Full.
			{"disk tier", []pcr.Option{pcr.WithDiskCache(t.TempDir(), 64<<20)},
				[][2]int{{0, pcr.Full}, {0, 1}, {1, 1}, {1, 2}}},
		} {
			ds := open(tc.opts...)
			read(ds, 0, pcr.Full)
			first := ds.FreePrefixes()
			if len(first) != 1 {
				t.Fatalf("remote=%v, %s: %d buffers on the free list after one read, want 1", remote, tc.name, len(first))
			}
			for _, rq := range tc.then {
				read(ds, rq[0], rq[1])
				if again := ds.FreePrefixes(); len(again) != 1 || again[0] != first[0] {
					t.Fatalf("remote=%v, %s: a read of record %d at quality %d did not reuse the buffer the read before it gave back",
						remote, tc.name, rq[0], rq[1])
				}
			}
			ds.Close()
			if n := len(ds.FreePrefixes()); n != 0 {
				t.Fatalf("remote=%v, %s: Close left %d buffers on the free list", remote, tc.name, n)
			}
		}

		// A one-byte memory tier keeps only the record fetched last, so each
		// Full read of the other record evicts it.
		ds := open(pcr.WithCacheBytes(1))
		read(ds, 0, pcr.Full)
		read(ds, 1, pcr.Full)
		evicted := ds.FreePrefixes()
		if len(evicted) != 1 {
			t.Fatalf("remote=%v: %d buffers on the free list after record 0's prefix was evicted, want 1", remote, len(evicted))
		}
		read(ds, 0, pcr.Full)
		again := ds.FreePrefixes()
		if len(again) != 1 || again[0] == evicted[0] {
			t.Fatalf("remote=%v: record 0's refill did not reuse its evicted prefix, or record 1's did not take its place", remote)
		}
		// Record 1's refill takes its old buffer back and evicts record 0's,
		// which record 0's refill takes back in turn, evicting record 1's
		// while it is held.
		release, err := ds.HoldRecord(1)
		if err != nil {
			t.Fatal(err)
		}
		read(ds, 0, pcr.Full)
		if n := len(ds.FreePrefixes()); n != 0 {
			t.Fatalf("remote=%v: a held prefix went to the free list when it was evicted (%d buffers on it)", remote, n)
		}
		release()
		if free := ds.FreePrefixes(); len(free) != 1 || free[0] != again[0] {
			t.Fatalf("remote=%v: the evicted prefix did not go to the free list when its read was released", remote)
		}
		ds.Close()
	}
}

// TestPushdownBodyReusesPrefixBuffer: a tierless remote filtered read
// receives its pushdown body into a buffer from the reader's free list, so
// the second record's body reuses the buffer the first's gave back.
func TestPushdownBodyReusesPrefixBuffer(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4))
	_, ts := startServer(t, dir, nil)
	pred := firstHalf(t, dir, 0, 1)
	open := func() *pcr.Dataset {
		t.Helper()
		ds, err := pcr.OpenRemote(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		return ds
	}
	read := func(ds *pcr.Dataset, rec int) int64 {
		t.Helper()
		_, body, avoided, err := ds.ReadRecordFiltered(rec, pcr.Full, pred)
		if err != nil {
			t.Fatal(err)
		}
		if avoided == 0 {
			t.Fatalf("record %d: the filtered read is not sparse", rec)
		}
		return body
	}
	// The larger body first, so that the smaller fits its buffer.
	sizes := open()
	order := []int{0, 1}
	if read(sizes, 0) < read(sizes, 1) {
		order = []int{1, 0}
	}
	ds := open()
	read(ds, order[0])
	first := ds.FreePrefixes()
	if len(first) != 1 {
		t.Fatalf("%d buffers on the free list after one pushdown read, want 1", len(first))
	}
	read(ds, order[1])
	if again := ds.FreePrefixes(); len(again) != 1 || again[0] != first[0] {
		t.Fatalf("record %d's pushdown body did not reuse the buffer record %d's gave back", order[1], order[0])
	}
}

// allocatedBytes is the bytes one call of read allocates, averaged over
// runs as testing.AllocsPerRun averages its counts: on one P, after a
// warm-up.
func allocatedBytes(read func()) float64 {
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	read()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		read()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// resumable synthesizes a dataset whose first record holds 32 samples.
func resumable(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	n, err := pcr.Synthesize(dir, "cars", 0.2, 1, pcr.WithImagesPerRecord(32))
	if err != nil {
		t.Fatal(err)
	}
	if n < 32 {
		t.Fatalf("dataset holds %d images, want a whole record of 32", n)
	}
	return dir
}

// TestResumedReadSplicesOnlyDelivered: a read resumed inside a record
// reassembles only the samples it delivers. The streams of one read share
// a buffer, so a resumed read makes as many allocations as the whole
// record's; it is its bytes that show what was spliced. A 32-sample record
// read from sample 31 allocates at least the 31 skipped streams' bytes
// less than the whole record's read.
func TestResumedReadSplicesOnlyDelivered(t *testing.T) {
	ds, err := pcr.Open(resumable(t))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	read := func(from int) []pcr.Sample {
		samples, err := ds.ReadRecordFrom(0, pcr.Full, from)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 32-from {
			t.Fatalf("read from sample %d delivered %d samples, want %d", from, len(samples), 32-from)
		}
		return samples
	}
	var skipped int
	for _, s := range read(0)[:31] {
		skipped += len(s.JPEG)
	}
	whole, resumed := allocatedBytes(func() { read(0) }), allocatedBytes(func() { read(31) })
	if whole-resumed < float64(skipped) {
		t.Fatalf("a read resumed at sample 31 of 32 allocates %.0f bytes, the whole record's %.0f: want at least the %d bytes of the 31 skipped streams fewer",
			resumed, whole, skipped)
	}
}

// TestResumedReadSparseSplicesOnlyDelivered is the same for a sparse read:
// a filter selecting half of a 32-sample record, gathered from the local
// files and resumed at the last sample it selects, allocates at least the
// 15 skipped streams' bytes less than the whole selection's read.
func TestResumedReadSparseSplicesOnlyDelivered(t *testing.T) {
	dir := resumable(t)
	pred := firstHalf(t, dir, 0)
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	read := func(from int) []pcr.Sample {
		samples, err := ds.ReadRecordFilteredFrom(0, pcr.Full, pred, from)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 16-from {
			t.Fatalf("read from selected sample %d delivered %d samples, want %d", from, len(samples), 16-from)
		}
		return samples
	}
	if _, _, avoided, err := ds.ReadRecordFiltered(0, pcr.Full, pred); err != nil || avoided == 0 {
		t.Fatalf("the filtered read avoided %d bytes (%v): it is not sparse", avoided, err)
	}
	var skipped int
	for _, s := range read(0)[:15] {
		skipped += len(s.JPEG)
	}
	whole, resumed := allocatedBytes(func() { read(0) }), allocatedBytes(func() { read(15) })
	if whole-resumed < float64(skipped) {
		t.Fatalf("a sparse read resumed at the last of 16 selected samples allocates %.0f bytes, the whole selection's %.0f: want at least the %d bytes of the 15 skipped streams fewer",
			resumed, whole, skipped)
	}
}
