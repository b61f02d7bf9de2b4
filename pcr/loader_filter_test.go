package pcr_test

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/pcr"
)

// TestLoaderFilterDelivery: a filtered epoch is the unfiltered epoch with
// the predicate applied — same shuffled record order, selected samples
// only, byte-identical streams — and the stats account every sample and
// every byte of the difference. An epoch lends its streams, so each is
// cloned inside the loop body; it runs over more records than are read
// ahead and batched, so that its sparse reads splice into buffers it has
// handed back, which at least one does.
func TestLoaderFilterDelivery(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(2), pcr.WithScanGroups(4))
	pred, err := pcr.ParseFilter("label IN (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23)")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	epochOf := func(opts ...pcr.LoaderOption) ([]pcr.Sample, pcr.EpochStats, int) {
		t.Helper()
		ds, err := pcr.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		l, err := pcr.NewLoader(ds, append([]pcr.LoaderOption{
			pcr.WithBatchSize(4), pcr.WithLoaderSeed(11)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		w := watchReuse(ds, ds.SparseSamples(pred))
		var out []pcr.Sample
		for b, err := range l.Epoch(ctx, 0) {
			if err != nil {
				t.Fatal(err)
			}
			w.saw(b.Samples)
			out = append(out, cloneStreams(b.Samples)...)
		}
		st, ok := l.LastEpochStats()
		if !ok {
			t.Fatal("no epoch stats")
		}
		return out, st, w.reused
	}

	all, allStats, _ := epochOf()
	got, st, reused := epochOf(pcr.WithLoaderFilter(pred))
	if reused == 0 {
		t.Fatal("no sparse read of the filtered epoch spliced into a stream buffer the epoch had handed back")
	}

	var want []pcr.Sample
	for _, s := range all {
		if pred.Matches(s.ID, s.Label) {
			want = append(want, s)
		}
	}
	if len(want) == 0 || len(want) == len(all) {
		t.Fatalf("degenerate selection %d/%d; pick a different predicate", len(want), len(all))
	}
	if len(got) != len(want) {
		t.Fatalf("filtered epoch delivered %d samples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Label != want[i].Label {
			t.Fatalf("sample %d is (%d,%d), want (%d,%d)", i, got[i].ID, got[i].Label, want[i].ID, want[i].Label)
		}
		if !bytes.Equal(got[i].JPEG, want[i].JPEG) {
			t.Fatalf("sample %d stream differs from the unfiltered epoch's", i)
		}
	}
	if st.Images != len(want) || st.SkippedImages != len(all)-len(want) {
		t.Fatalf("stats: %d images + %d skipped, want %d + %d",
			st.Images, st.SkippedImages, len(want), len(all)-len(want))
	}
	if st.BytesRead+st.BytesAvoided != allStats.BytesRead {
		t.Fatalf("read %d + avoided %d != unfiltered epoch's %d",
			st.BytesRead, st.BytesAvoided, allStats.BytesRead)
	}
	if st.BytesRead >= allStats.BytesRead {
		t.Fatalf("filtered epoch read %d bytes, unfiltered read %d", st.BytesRead, allStats.BytesRead)
	}
	if allStats.SkippedImages != 0 || allStats.BytesAvoided != 0 {
		t.Fatalf("unfiltered epoch reports filter stats: %+v", allStats)
	}
}

// TestLocalFilteredLoaderMovesPlannedBytes is the local counterpart of
// TestRemoteFilteredLoaderMovesOnlySelectedBytes: tierless (sparse reads)
// and behind either cache tier (whole prefixes), one filtered epoch delivers
// PlanFilter's selection, moves its Bytes by the count of the layer beneath
// pcr, and reports its price in EpochStats.
func TestLocalFilteredLoaderMovesPlannedBytes(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4))
	pred, err := pcr.ParseFilter("label IN (0, 1, 2)")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []pcr.Option
	}{
		{"tierless", nil},
		{"memory", []pcr.Option{pcr.WithCacheBytes(1 << 20)}},
		{"disk", []pcr.Option{pcr.WithDiskCache(t.TempDir(), 64<<20)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := pcr.Open(dir, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			moved := movedBelow(ds, nil)
			plan, err := ds.PlanFilter(pred, pcr.Full)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Selected == 0 || plan.Selected == plan.Total {
				t.Fatalf("degenerate plan %+v", plan)
			}
			l, err := pcr.NewLoader(ds, pcr.WithBatchSize(4), pcr.WithLoaderFilter(pred))
			if err != nil {
				t.Fatal(err)
			}
			delivered := 0
			for b, err := range l.Epoch(context.Background(), 0) {
				if err != nil {
					t.Fatal(err)
				}
				delivered += len(b.Samples)
			}
			samePrice(t, "epoch", plan, delivered, moved())
			st, ok := l.LastEpochStats()
			if !ok {
				t.Fatal("no epoch stats")
			}
			if st.Images != plan.Selected || st.SkippedImages != plan.Total-plan.Selected ||
				st.BytesRead != plan.Bytes || st.BytesAvoided != plan.FullBytes-plan.Bytes {
				t.Fatalf("epoch stats %d images, %d skipped, %d bytes read, %d avoided; PlanFilter %+v",
					st.Images, st.SkippedImages, st.BytesRead, st.BytesAvoided, plan)
			}
		})
	}
}

// TestLoaderFilterResume: a checkpoint taken mid-epoch under a filter
// resumes to exactly the uninterrupted epoch's remaining batches — the
// skip-shortcut counts selected samples, not record sizes. Streams are
// cloned inside the loop body, since an epoch lends them; in the
// uninterrupted epoch and in the resumed one, at least one sparse read
// splices into a buffer the epoch has handed back.
func TestLoaderFilterResume(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(2), pcr.WithScanGroups(4))
	pred, err := pcr.ParseFilter("label IN (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23) OR id = 10")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	open := func() (*pcr.Dataset, func()) {
		t.Helper()
		ds, err := pcr.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return ds, func() { ds.Close() }
	}

	// Uninterrupted filtered epoch: the reference batch sequence.
	ds1, close1 := open()
	defer close1()
	l1, err := pcr.NewLoader(ds1, pcr.WithBatchSize(3), pcr.WithLoaderSeed(5), pcr.WithLoaderFilter(pred))
	if err != nil {
		t.Fatal(err)
	}
	w1 := watchReuse(ds1, ds1.SparseSamples(pred))
	var full [][]pcr.Sample
	for b, err := range l1.Epoch(ctx, 1) {
		if err != nil {
			t.Fatal(err)
		}
		w1.saw(b.Samples)
		full = append(full, cloneStreams(b.Samples))
	}
	if w1.reused == 0 {
		t.Fatal("no sparse read of the filtered epoch spliced into a stream buffer the epoch had handed back")
	}
	if len(full) < 3 {
		t.Fatalf("only %d filtered batches; dataset too small for a resume test", len(full))
	}

	// Interrupted run: crash after two batches, checkpoint in hand.
	ds2, close2 := open()
	defer close2()
	l2, err := pcr.NewLoader(ds2, pcr.WithBatchSize(3), pcr.WithLoaderSeed(5), pcr.WithLoaderFilter(pred))
	if err != nil {
		t.Fatal(err)
	}
	var cp pcr.Checkpoint
	n := 0
	for _, err := range l2.Epoch(ctx, 1) {
		if err != nil {
			t.Fatal(err)
		}
		cp, _ = l2.Checkpoint()
		if n++; n == 2 {
			break
		}
	}

	// Restarted worker: same filter, resume coordinates.
	ds3, close3 := open()
	defer close3()
	l3, err := pcr.NewLoader(ds3, pcr.WithResume(cp), pcr.WithLoaderFilter(pred))
	if err != nil {
		t.Fatal(err)
	}
	w3 := watchReuse(ds3, ds3.SparseSamples(pred))
	var tail [][]pcr.Sample
	for b, err := range l3.Epoch(ctx, cp.Epoch) {
		if err != nil {
			t.Fatal(err)
		}
		w3.saw(b.Samples)
		tail = append(tail, cloneStreams(b.Samples))
	}
	if w3.reused == 0 {
		t.Fatal("no sparse read of the resumed epoch spliced into a stream buffer the epoch had handed back")
	}
	want := full[2:]
	if len(tail) != len(want) {
		t.Fatalf("resumed run delivered %d batches, want %d", len(tail), len(want))
	}
	for i := range tail {
		if len(tail[i]) != len(want[i]) {
			t.Fatalf("batch %d has %d samples, want %d", i, len(tail[i]), len(want[i]))
		}
		for j := range tail[i] {
			if tail[i][j].ID != want[i][j].ID || !bytes.Equal(tail[i][j].JPEG, want[i][j].JPEG) {
				t.Fatalf("batch %d sample %d differs after resume", i, j)
			}
		}
	}
}

// reuseWatch counts, over one epoch of a Loader, the sparse reads that
// splice into a stream buffer the epoch handed back before them.
type reuseWatch struct {
	sparse map[int64]bool // the samples sparse reads deliver (Dataset.SparseSamples)
	mu     sync.Mutex
	// back is the first byte of each stream buffer of each lease given
	// back; holding it keeps the buffer's address the buffer's.
	back   map[*byte]bool
	reused int
}

// watchReuse watches the stream buffers of ds's record leases through
// OnLease; one Loader runs one epoch over ds.
func watchReuse(ds *pcr.Dataset, sparse map[int64]bool) *reuseWatch {
	w := &reuseWatch{sparse: sparse, back: make(map[*byte]bool)}
	ds.OnLease(func(ev pcr.LeaseEvent) {
		w.mu.Lock()
		defer w.mu.Unlock()
		for _, b := range ev.Streams {
			w.back[&b[0]] = true
		}
	})
	return w
}

// saw takes a batch inside its loop body. A read splices its first stream
// at the start of the buffer it takes, so a sparse read's stream that
// starts a buffer handed back already is a sparse read into that buffer.
func (w *reuseWatch) saw(samples []pcr.Sample) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range samples {
		if w.sparse[s.ID] && w.back[unsafe.SliceData(s.JPEG)] {
			w.reused++
		}
	}
}

// cloneStreams is samples with JPEG bytes of their own: a Loader.Epoch
// batch's are lent, valid only until its loop body returns.
func cloneStreams(samples []pcr.Sample) []pcr.Sample {
	out := slices.Clone(samples)
	for i := range out {
		out[i].JPEG = bytes.Clone(out[i].JPEG)
	}
	return out
}

func TestWithLoaderFilterValidation(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, err := pcr.NewLoader(ds, pcr.WithLoaderFilter(nil)); err == nil {
		t.Fatal("nil predicate accepted")
	}
}
