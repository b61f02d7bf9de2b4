package pcr_test

import (
	"context"
	"strings"
	"testing"

	"repro/pcr"
)

// TestShardLocalMatchesRemote: shard i of n is the same dataset whether it
// is opened locally or from a server — the same records, images, sizes at
// every quality, and Loader delivery — and both are keyed by the same disk
// cache generation, so a worker moving between the two keeps its cache warm.
func TestShardLocalMatchesRemote(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(4), pcr.WithScanGroups(3))
	_, ts := startServer(t, dir, nil)
	const n = 3
	for i := 0; i < n; i++ {
		dc := t.TempDir()
		local, err := pcr.Open(dir, pcr.WithShard(i, n), pcr.WithDiskCache(dc, 64<<20))
		if err != nil {
			t.Fatal(err)
		}
		ll, err := pcr.NewLoader(local, pcr.WithBatchSize(5), pcr.WithLoaderSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		localIDs, _ := epochIDs(t, ll, 1)
		local.Close()
		remote, err := pcr.OpenRemote(ts.URL, pcr.WithShard(i, n), pcr.WithDiskCache(dc, 64<<20))
		if err != nil {
			t.Fatal(err)
		}
		defer remote.Close()
		// Reopened over the same disk cache: the generation is the shard
		// view's, so every record the local worker read is recovered.
		if st, _ := remote.DiskCacheStats(); st.Recovered != int64(remote.NumRecords()) {
			t.Fatalf("shard %d: remote open recovered %d of the local worker's %d cache entries", i, st.Recovered, remote.NumRecords())
		}
		// Fresh local view for the counts (the one above is closed).
		local, err = pcr.Open(dir, pcr.WithShard(i, n))
		if err != nil {
			t.Fatal(err)
		}
		defer local.Close()
		if local.NumRecords() != remote.NumRecords() || local.NumImages() != remote.NumImages() ||
			local.Qualities() != remote.Qualities() {
			t.Fatalf("shard %d: local %d records, %d images, %d qualities; remote %d, %d, %d", i,
				local.NumRecords(), local.NumImages(), local.Qualities(),
				remote.NumRecords(), remote.NumImages(), remote.Qualities())
		}
		for q := 1; q <= local.Qualities(); q++ {
			a, err1 := local.SizeAtQuality(q)
			b, err2 := remote.SizeAtQuality(q)
			if err1 != nil || err2 != nil || a != b {
				t.Fatalf("shard %d quality %d: local %d (%v), remote %d (%v)", i, q, a, err1, b, err2)
			}
		}
		rl, err := pcr.NewLoader(remote, pcr.WithBatchSize(5), pcr.WithLoaderSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		if remoteIDs, _ := epochIDs(t, rl, 1); !equalIDs(localIDs, remoteIDs) {
			t.Fatalf("shard %d: local epoch delivered %v, remote %v", i, localIDs, remoteIDs)
		}
	}
}

// TestShardCheckpointStaysOnItsShard: a checkpoint taken on shard 1 of 3
// is refused over shard 0 of 3 — its position means other records there —
// and resumes over shard 1 of 3 where the uninterrupted epoch would be.
func TestShardCheckpointStaysOnItsShard(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(2))
	open := func(i int) *pcr.Dataset {
		ds, err := pcr.Open(dir, pcr.WithShard(i, 3))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		return ds
	}
	one := open(1)
	l, err := pcr.NewLoader(one, pcr.WithBatchSize(3), pcr.WithLoaderSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := epochIDs(t, l, 2)
	var got []int64
	for b, err := range l.Epoch(context.Background(), 2) {
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range b.Samples {
			got = append(got, s.ID)
		}
		break
	}
	cp, _ := l.Checkpoint()
	if cp.Shard != 1 || cp.Shards != 3 {
		t.Fatalf("checkpoint records shard %d of %d, want 1 of 3", cp.Shard, cp.Shards)
	}

	if _, err := pcr.NewLoader(open(0), pcr.WithResume(cp)); err == nil ||
		!strings.Contains(err.Error(), "shard 1 of 3") || !strings.Contains(err.Error(), "shard 0 of 3") {
		t.Fatalf("checkpoint of shard 1/3 over shard 0/3: %v, want an error naming both shards", err)
	}
	whole, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	if _, err := pcr.NewLoader(whole, pcr.WithResume(cp)); err == nil {
		t.Fatal("checkpoint of shard 1/3 accepted over the whole dataset")
	}

	resumed, err := pcr.NewLoader(open(1), pcr.WithResume(cp))
	if err != nil {
		t.Fatal(err)
	}
	for b, err := range resumed.Epoch(context.Background(), 2) {
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range b.Samples {
			got = append(got, s.ID)
		}
	}
	if !equalIDs(got, want) {
		t.Fatalf("resumed shard epoch delivered %v, want %v", got, want)
	}
	// A checkpoint that does not record its shard is taken at its word.
	cp.Shard, cp.Shards = 0, 0
	if _, err := pcr.NewLoader(open(1), pcr.WithResume(cp)); err != nil {
		t.Fatalf("checkpoint without a shard: %v", err)
	}
}

// TestEmptyShardRefused: a shard with no records is refused at open, local
// or remote, naming the shard; sharding a baseline format is refused too.
func TestEmptyShardRefused(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(1000)) // one record
	_, ts := startServer(t, dir, nil)
	if ds, err := pcr.Open(dir, pcr.WithShard(0, 6)); err != nil {
		t.Fatalf("shard 0 of 6 holds the one record: %v", err)
	} else {
		ds.Close()
	}
	if _, err := pcr.Open(dir, pcr.WithShard(5, 6)); err == nil || !strings.Contains(err.Error(), "shard 5 of 6") {
		t.Fatalf("local empty shard: %v, want an error naming shard 5 of 6", err)
	}
	if _, err := pcr.OpenRemote(ts.URL, pcr.WithShard(5, 6)); err == nil || !strings.Contains(err.Error(), "shard 5 of 6") {
		t.Fatalf("remote empty shard: %v, want an error naming shard 5 of 6", err)
	}
	if _, err := pcr.Open(dir, pcr.WithFormat(pcr.TFRecord), pcr.WithShard(0, 2)); err == nil {
		t.Fatal("WithShard over a baseline format accepted")
	}
}
