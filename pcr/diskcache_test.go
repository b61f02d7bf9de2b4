package pcr_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/pcr"
)

// TestDiskCacheWarmRestartMovesZeroNetworkBytes is the tentpole acceptance
// scenario: process 1 scans a remote dataset through a persistent disk
// cache and exits; process 2 mounts the same cache directory and re-scans —
// moving ~zero record bytes over the network — then upgrades quality,
// moving exactly the delta bytes. All assertions are on the server's own
// counters: what actually crossed the wire.
func TestDiskCacheWarmRestartMovesZeroNetworkBytes(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8), pcr.WithScanGroups(5))
	srv, ts := startServer(t, dir, nil)
	cacheDir := filepath.Join(t.TempDir(), "worker-cache")

	ctx := context.Background()
	scan := func(ds *pcr.Dataset, q int) []pcr.Sample {
		t.Helper()
		var out []pcr.Sample
		for s, err := range ds.ScanEncoded(ctx, q) {
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
		return out
	}

	// Process 1: cold scan at quality 2, then exit.
	ds1, err := pcr.OpenRemote(ts.URL, pcr.WithDiskCache(cacheDir, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	size2, err := ds1.SizeAtQuality(2)
	if err != nil {
		t.Fatal(err)
	}
	want := scan(ds1, 2)
	if got := srv.Stats().BytesServed; got != size2 {
		t.Fatalf("cold scan served %d bytes, want %d", got, size2)
	}
	if err := ds1.Close(); err != nil {
		t.Fatal(err)
	}

	// Process 2: same cache dir, fresh client. The re-scan must be served
	// entirely from the recovered disk cache — zero record bytes move.
	ds2, err := pcr.OpenRemote(ts.URL, pcr.WithDiskCache(cacheDir, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	prev := srv.Stats().BytesServed
	got := scan(ds2, 2)
	if moved := srv.Stats().BytesServed - prev; moved != 0 {
		t.Fatalf("warm-restart re-scan moved %d network bytes, want 0", moved)
	}
	if len(got) != len(want) {
		t.Fatalf("warm re-scan yielded %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || !bytes.Equal(got[i].JPEG, want[i].JPEG) {
			t.Fatalf("sample %d served from disk cache differs from the wire scan", i)
		}
	}
	st, ok := ds2.DiskCacheStats()
	if !ok {
		t.Fatal("remote dataset with WithDiskCache reports no disk cache")
	}
	if st.Recovered != int64(ds2.NumRecords()) {
		t.Fatalf("recovered %d cache entries, want one per record (%d)", st.Recovered, ds2.NumRecords())
	}

	// Quality upgrade in process 2: exactly the delta bytes cross the wire.
	size4, err := ds2.SizeAtQuality(4)
	if err != nil {
		t.Fatal(err)
	}
	prev = srv.Stats().BytesServed
	scan(ds2, 4)
	if moved, delta := srv.Stats().BytesServed-prev, size4-size2; moved != delta {
		t.Fatalf("quality upgrade 2→4 moved %d network bytes, want exactly the delta %d", moved, delta)
	}
	if st, _ := ds2.DiskCacheStats(); st.DeltaBytes != size4-size2 {
		t.Fatalf("disk cache delta bytes = %d, want %d", st.DeltaBytes, size4-size2)
	}
}

// TestDiskCacheComposesUnderMemoryCache: both tiers on, remote. The memory
// LRU absorbs repeat reads within the process; the disk tier persists them
// across the restart; the wire still sees exact delta pricing.
func TestDiskCacheComposesUnderMemoryCache(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4))
	srv, ts := startServer(t, dir, nil)
	cacheDir := t.TempDir()

	open := func() *pcr.Dataset {
		t.Helper()
		ds, err := pcr.OpenRemote(ts.URL,
			pcr.WithCacheBytes(1<<30),
			pcr.WithDiskCache(cacheDir, 1<<30))
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	ctx := context.Background()
	scan := func(ds *pcr.Dataset, q int) {
		t.Helper()
		for _, err := range ds.ScanEncoded(ctx, q) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	ds := open()
	scan(ds, 1)
	scan(ds, 1) // absorbed by the memory tier
	mem, _ := ds.CacheStats()
	if mem.Hits == 0 {
		t.Fatal("repeat scan did not hit the memory tier")
	}
	size1, _ := ds.SizeAtQuality(1)
	if got := srv.Stats().BytesServed; got != size1 {
		t.Fatalf("two scans with both tiers served %d wire bytes, want %d", got, size1)
	}
	ds.Close()

	ds2 := open()
	defer ds2.Close()
	prev := srv.Stats().BytesServed
	scan(ds2, 1)
	if moved := srv.Stats().BytesServed - prev; moved != 0 {
		t.Fatalf("restart with both tiers moved %d wire bytes, want 0", moved)
	}
	size2, _ := ds2.SizeAtQuality(2)
	prev = srv.Stats().BytesServed
	scan(ds2, 2)
	if moved := srv.Stats().BytesServed - prev; moved != size2-size1 {
		t.Fatalf("upgrade through both tiers moved %d wire bytes, want %d", moved, size2-size1)
	}
}

// TestDiskCacheLocalWarmRestart: the same decorator over a local directory
// backend — a restarted local job re-reads from the cache tier, not the
// dataset files.
func TestDiskCacheLocalWarmRestart(t *testing.T) {
	dir, n := synthDir(t, pcr.WithImagesPerRecord(8), pcr.WithScanGroups(3))
	cacheDir := t.TempDir()

	ds, err := pcr.Open(dir, pcr.WithDiskCache(cacheDir, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, err := range ds.Scan(context.Background(), pcr.Full) {
		if err != nil {
			t.Fatal(err)
		}
		got++
	}
	if got != n {
		t.Fatalf("scanned %d samples, want %d", got, n)
	}
	st, ok := ds.DiskCacheStats()
	if !ok || st.Misses == 0 {
		t.Fatalf("disk cache stats = %+v, ok=%v; want cold misses", st, ok)
	}
	ds.Close()

	ds2, err := pcr.Open(dir, pcr.WithDiskCache(cacheDir, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	for _, err := range ds2.Scan(context.Background(), pcr.Full) {
		if err != nil {
			t.Fatal(err)
		}
	}
	st2, _ := ds2.DiskCacheStats()
	if st2.Misses != 0 || st2.BytesFetched != 0 {
		t.Fatalf("warm local restart fetched %d bytes (%d misses) from the dataset, want 0",
			st2.BytesFetched, st2.Misses)
	}
}

// TestDiskCacheCrashRecoveryNeverCorruptsScan damages the cache like a
// crash would — torn header, truncated prefix file, flipped byte —
// and requires every subsequent Scan to deliver bit-identical samples:
// recovery discards what it cannot verify and refetches.
func TestDiskCacheCrashRecoveryNeverCorruptsScan(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8), pcr.WithScanGroups(3))
	cacheDir := t.TempDir()
	ctx := context.Background()

	collect := func(ds *pcr.Dataset) []pcr.Sample {
		t.Helper()
		var out []pcr.Sample
		for s, err := range ds.ScanEncoded(ctx, pcr.Full) {
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
		return out
	}

	ds, err := pcr.Open(dir, pcr.WithDiskCache(cacheDir, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	want := collect(ds)
	ds.Close()

	// Damage everything damageable: truncate one object file, flip a byte
	// in another, tear a third one's header.
	var objects []string
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if strings.HasPrefix(de.Name(), "obj-") {
			objects = append(objects, filepath.Join(cacheDir, de.Name()))
		}
	}
	if len(objects) < 3 {
		t.Fatalf("expected ≥3 cached objects, got %d", len(objects))
	}
	if err := os.Truncate(objects[0], 10); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(objects[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x5A
	if err := os.WriteFile(objects[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(objects[2])
	if err != nil {
		t.Fatal(err)
	}
	clear(raw[:8])
	if err := os.WriteFile(objects[2], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	ds2, err := pcr.Open(dir, pcr.WithDiskCache(cacheDir, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	st, _ := ds2.DiskCacheStats()
	if st.Discarded != 2 {
		t.Fatalf("recovery discarded %d entries at open, want the truncated one and the torn header: %+v", st.Discarded, st)
	}
	got := collect(ds2)
	if len(got) != len(want) {
		t.Fatalf("post-crash scan yielded %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || !bytes.Equal(got[i].JPEG, want[i].JPEG) {
			t.Fatalf("post-crash sample %d differs from pristine scan — corrupt bytes reached Scan", i)
		}
	}
	if st, _ := ds2.DiskCacheStats(); st.Discarded != 3 {
		t.Fatalf("after the scan %d entries discarded, want the flipped byte's too: %+v", st.Discarded, st)
	}
}

// TestDiskCacheRejectsBaselineFormatsAndStaleGenerations: option guards,
// and the generation fence that keeps a cache from serving bytes of a
// different dataset build.
func TestDiskCacheRejectsBaselineFormatsAndStaleGenerations(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8))
	cacheDir := t.TempDir()

	tfDir := t.TempDir()
	if _, err := pcr.Synthesize(tfDir, "cars", 0.1, 1, pcr.WithFormat(pcr.TFRecord)); err != nil {
		t.Fatal(err)
	}
	if _, err := pcr.Open(tfDir, pcr.WithFormat(pcr.TFRecord), pcr.WithDiskCache(cacheDir, 1<<20)); err == nil {
		t.Fatal("disk cache over a baseline format should fail")
	}

	ds, err := pcr.Open(dir, pcr.WithDiskCache(cacheDir, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range ds.ScanEncoded(context.Background(), 1) {
		if err != nil {
			t.Fatal(err)
		}
	}
	ds.Close()

	// A different dataset build in the same cache dir: purge, not poison.
	dir2, _ := synthDir(t, pcr.WithImagesPerRecord(4))
	ds2, err := pcr.Open(dir2, pcr.WithDiskCache(cacheDir, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	st, _ := ds2.DiskCacheStats()
	if st.Recovered != 0 {
		t.Fatalf("recovered %d entries across dataset generations, want 0", st.Recovered)
	}
	for _, err := range ds2.ScanEncoded(context.Background(), 1) {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiskCacheFirstReadsAreWarmHits: a warm restart's open reads no cached
// byte, and each record's first read checks the entry's CRC and serves the
// prefix in one pass — a hit, with zero network bytes moved.
func TestDiskCacheFirstReadsAreWarmHits(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8), pcr.WithScanGroups(3))
	srv, ts := startServer(t, dir, nil)
	cacheDir := t.TempDir()
	ctx := context.Background()

	ds1, err := pcr.OpenRemote(ts.URL, pcr.WithDiskCache(cacheDir, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range ds1.ScanEncoded(ctx, 2) {
		if err != nil {
			t.Fatal(err)
		}
	}
	ds1.Close()

	ds2, err := pcr.OpenRemote(ts.URL, pcr.WithDiskCache(cacheDir, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	n := int64(ds2.NumRecords())
	prev := srv.Stats().BytesServed
	for _, err := range ds2.ScanEncoded(ctx, 2) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if moved := srv.Stats().BytesServed - prev; moved != 0 {
		t.Fatalf("warm re-scan moved %d network bytes, want 0", moved)
	}
	st, _ := ds2.DiskCacheStats()
	if st.Recovered != n || st.Discarded != 0 || st.Hits != n || st.Misses != 0 || st.DeltaHits != 0 {
		t.Fatalf("warm re-scan stats = %+v, want %d recovered entries each served as one hit", st, n)
	}
}
