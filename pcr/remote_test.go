package pcr_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
	"repro/pcr"
)

// startServer serves dir with the prefix server over httptest.
func startServer(t *testing.T, dir string, opts *serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// TestRemoteScanMatchesLocal streams the same dataset locally and through
// the serving layer and requires identical samples at every quality.
func TestRemoteScanMatchesLocal(t *testing.T) {
	dir, n := synthDir(t, pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4))
	_, ts := startServer(t, dir, nil)

	local, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	remote, err := pcr.OpenRemote(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	if remote.NumImages() != n || remote.NumImages() != local.NumImages() {
		t.Fatalf("remote NumImages = %d, local = %d, want %d", remote.NumImages(), local.NumImages(), n)
	}
	if remote.Qualities() != local.Qualities() {
		t.Fatalf("remote Qualities = %d, local = %d", remote.Qualities(), local.Qualities())
	}
	ctx := context.Background()
	for q := 1; q <= local.Qualities(); q++ {
		ls, err := collect(ctx, local, q)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := collect(ctx, remote, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ls) != len(rs) {
			t.Fatalf("q=%d: remote yielded %d samples, local %d", q, len(rs), len(ls))
		}
		for i := range ls {
			if ls[i].ID != rs[i].ID || ls[i].Label != rs[i].Label || !bytes.Equal(ls[i].JPEG, rs[i].JPEG) {
				t.Fatalf("q=%d sample %d: remote stream differs from local", q, i)
			}
		}
		lsize, err := local.SizeAtQuality(q)
		if err != nil {
			t.Fatal(err)
		}
		rsize, err := remote.SizeAtQuality(q)
		if err != nil {
			t.Fatal(err)
		}
		if lsize != rsize {
			t.Fatalf("q=%d: remote SizeAtQuality = %d, local %d", q, rsize, lsize)
		}
	}
}

func collect(ctx context.Context, ds *pcr.Dataset, q int) ([]pcr.Sample, error) {
	var out []pcr.Sample
	for s, err := range ds.ScanEncoded(ctx, q) {
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// TestRemoteCachedRescanFetchesOnlyDelta is the acceptance scenario: scan a
// served dataset at a coarse quality, re-scan at higher qualities with the
// client prefix cache on, and assert via the server's counters that each
// re-scan moved only the delta bytes.
func TestRemoteCachedRescanFetchesOnlyDelta(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8), pcr.WithScanGroups(5))
	srv, ts := startServer(t, dir, nil)

	ds, err := pcr.OpenRemote(ts.URL, pcr.WithCacheBytes(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	ctx := context.Background()
	sizeAt := func(q int) int64 {
		t.Helper()
		n, err := ds.SizeAtQuality(q)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	scan := func(q int) {
		t.Helper()
		for _, err := range ds.ScanEncoded(ctx, q) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	// Multi-group upgrade sequence: 1 → 3 → Full. Each step should move
	// exactly the byte difference between the quality levels across the
	// wire: the prefix property makes everything below the new level
	// reusable from the client cache.
	top := ds.Qualities()
	prev := srv.Stats().BytesServed
	scan(1)
	if got, want := srv.Stats().BytesServed-prev, sizeAt(1); got != want {
		t.Fatalf("cold scan at q=1 served %d bytes, want %d", got, want)
	}
	prev = srv.Stats().BytesServed
	scan(3)
	if got, want := srv.Stats().BytesServed-prev, sizeAt(3)-sizeAt(1); got != want {
		t.Fatalf("upgrade scan 1→3 served %d bytes, want delta %d", got, want)
	}
	prev = srv.Stats().BytesServed
	scan(pcr.Full)
	if got, want := srv.Stats().BytesServed-prev, sizeAt(top)-sizeAt(3); got != want {
		t.Fatalf("upgrade scan 3→full served %d bytes, want delta %d", got, want)
	}
	// A repeat scan at an already-cached quality moves nothing.
	prev = srv.Stats().BytesServed
	scan(3)
	if got := srv.Stats().BytesServed - prev; got != 0 {
		t.Fatalf("re-scan at cached quality served %d bytes, want 0", got)
	}

	stats, ok := ds.CacheStats()
	if !ok {
		t.Fatal("remote dataset with WithCacheBytes reports no cache")
	}
	if stats.UpgradeHits == 0 {
		t.Fatal("expected delta upgrade hits in the client cache")
	}
	if stats.Misses != int64(ds.NumRecords()) {
		t.Fatalf("client cache misses = %d, want one per record (%d)", stats.Misses, ds.NumRecords())
	}
}

// TestRemoteRejectsBaselineFormats: remote serving is PCR-only.
func TestRemoteRejectsBaselineFormats(t *testing.T) {
	dir, _ := synthDir(t)
	_, ts := startServer(t, dir, nil)
	if _, err := pcr.OpenRemote(ts.URL, pcr.WithFormat(pcr.TFRecord)); err == nil {
		t.Fatal("OpenRemote with TFRecord format should fail")
	}
}

// TestRemoteRandomAccess exercises the record-granular API over the wire.
func TestRemoteRandomAccess(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8))
	_, ts := startServer(t, dir, nil)
	ds, err := pcr.OpenRemote(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ctx := context.Background()
	samples, err := ds.ReadRecord(ctx, ds.NumRecords()-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples from remote ReadRecord")
	}
	for _, s := range samples {
		if s.Image == nil {
			t.Fatalf("sample %d not decoded", s.ID)
		}
	}
}

// TestRemoteIndexShard: a remote worker opened with WithShard sees exactly
// its stride partition, and the shard views are disjoint and covering.
func TestRemoteIndexShard(t *testing.T) {
	dir, n := synthDir(t, pcr.WithImagesPerRecord(4))
	_, ts := startServer(t, dir, nil)

	full, err := pcr.OpenRemote(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()

	ctx := context.Background()
	seen := make(map[int64]int)
	records := 0
	for shard := 0; shard < 3; shard++ {
		ds, err := pcr.OpenRemote(ts.URL, pcr.WithShard(shard, 3))
		if err != nil {
			t.Fatal(err)
		}
		records += ds.NumRecords()
		l, err := pcr.NewLoader(ds, pcr.WithBatchSize(8))
		if err != nil {
			t.Fatal(err)
		}
		for b, err := range l.Epoch(ctx, 0) {
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range b.Samples {
				seen[s.ID]++
			}
		}
		ds.Close()
	}
	if records != full.NumRecords() {
		t.Fatalf("shard views hold %d records, want %d", records, full.NumRecords())
	}
	if len(seen) != n {
		t.Fatalf("3 shard workers covered %d images, want %d", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("image %d delivered %d times across shards, want exactly once", id, c)
		}
	}
}
