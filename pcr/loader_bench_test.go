//go:build unix

package pcr_test

import (
	"context"
	"net/http/httptest"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/pcr"
)

// cpuTime is the user+system CPU time this process has used.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// benchV1 writes a bench-v1-shaped dataset (benchShaped, 384 images) and
// serves it from an in-process prefix server with a hot cache over loopback.
func benchV1(b *testing.B) (dir, url string) {
	dir = benchShaped(b, 384)
	srv, err := serve.New(dir, &serve.Options{CacheBytes: 256 << 20})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	b.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return dir, ts.URL
}

// BenchmarkLoaderEpoch is the Loader as the repository benchmark's train_*
// workloads drive it, small enough to iterate on: the benchV1 dataset,
// batches of 32 through a shuffle window of 8, GOMAXPROCS decode workers,
// the consumer doing nothing. local_full reads a directory at full quality;
// remote_q5 reads quality 5 from the in-process server. One iteration is one
// epoch. Beside images/s it reports cores-busy — CPU time over wall time, the
// number that showed the Loader leaving cores idle — which on a box with
// spare cores also counts the server's share.
func BenchmarkLoaderEpoch(b *testing.B) {
	dir, url := benchV1(b)
	workers := pcr.WithPrefetchWorkers(runtime.GOMAXPROCS(0))
	for _, bc := range []struct {
		name    string
		quality int
		open    func() (*pcr.Dataset, error)
	}{
		{"local_full", pcr.Full, func() (*pcr.Dataset, error) { return pcr.Open(dir, workers) }},
		{"remote_q5", 5, func() (*pcr.Dataset, error) { return pcr.OpenRemote(url, workers, pcr.WithHedgeDelay(-1)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ds, err := bc.open()
			if err != nil {
				b.Fatal(err)
			}
			defer ds.Close()
			l, err := pcr.NewLoader(ds, pcr.WithBatchSize(32), pcr.WithShuffleWindow(8), pcr.WithQuality(bc.quality))
			if err != nil {
				b.Fatal(err)
			}
			images := 0
			b.ResetTimer()
			start, cpu := time.Now(), cpuTime(b)
			for epoch := 0; epoch < b.N; epoch++ {
				for batch, err := range l.Epoch(context.Background(), epoch) {
					if err != nil {
						b.Fatal(err)
					}
					images += len(batch.Samples)
				}
			}
			wall := time.Since(start)
			b.ReportMetric(float64(images)/wall.Seconds(), "images/s")
			b.ReportMetric(float64(cpuTime(b)-cpu)/float64(wall), "cores-busy")
		})
	}
}

// BenchmarkScanEncoded is Dataset.ScanEncoded as the repository benchmark's
// filtered_pushdown and cache_tiers workloads drive it, over the benchV1
// server. remote_filtered is one pass of a 10 % label filter pushed down,
// no client caches; tiers_cold is the cold phase of a cache_tiers cycle — a
// quality-2 scan through a 1 MiB memory tier into a disk tier that starts
// empty, opened and closed inside the iteration. Both report the images/s
// delivered.
func BenchmarkScanEncoded(b *testing.B) {
	_, url := benchV1(b)
	scan := func(b *testing.B, ds *pcr.Dataset, q int, opts ...pcr.ScanOption) (images int) {
		for _, err := range ds.ScanEncoded(context.Background(), q, opts...) {
			if err != nil {
				b.Fatal(err)
			}
			images++
		}
		return images
	}
	b.Run("remote_filtered", func(b *testing.B) {
		ds, err := pcr.OpenRemote(url, pcr.WithHedgeDelay(-1))
		if err != nil {
			b.Fatal(err)
		}
		defer ds.Close()
		images := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			images += scan(b, ds, pcr.Full, pcr.WithFilter(pcr.LabelIn(3, 11)))
		}
		b.ReportMetric(float64(images)/b.Elapsed().Seconds(), "images/s")
	})
	b.Run("tiers_cold", func(b *testing.B) {
		images := 0
		for i := 0; i < b.N; i++ {
			ds, err := pcr.OpenRemote(url, pcr.WithHedgeDelay(-1),
				pcr.WithCacheBytes(1<<20), pcr.WithDiskCache(b.TempDir(), 64<<20))
			if err != nil {
				b.Fatal(err)
			}
			images += scan(b, ds, 2)
			if err := ds.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(images)/b.Elapsed().Seconds(), "images/s")
	})
}
