// Command pcrbench is the reader microbenchmark of §A.5 run against a real
// dataset through the public pcr package: N parallel readers fetch record
// prefixes at each quality level — optionally decoding every image — and
// the tool reports images/second, bytes read per sample, and effective
// bandwidth per quality (the measured side of Figure 18). Formats without
// record-level access (tfrecord, fileperimage) are measured through the
// streaming Scan path.
//
// -dataset accepts either a local directory or a pcrserved URL
// (http://host:port), so local-disk and remote-serving runs produce
// directly comparable tables: bytes/image is the same column either way,
// and the bandwidth column becomes wire bandwidth for remote runs.
//
// -loader switches the benchmark from raw record reads to the full batch
// pipeline (pcr.Loader): each pass is one epoch of shuffled, decoded,
// batch-assembled samples, reporting images/s, bytes/img, and the
// consumer's stall time. With -disk-cache-dir the table doubles as a
// cold-vs-warm comparison: epoch 0 fills the persistent cache over the
// (possibly remote) upstream, later epochs read it back locally, and a
// final summary prints both rows side by side.
//
// -filter restricts the benchmark to the samples a predicate expression
// selects (e.g. "label IN (3, 7)"), measuring the queryable-dataset path:
// records with no match are skipped without a read, partial matches are
// fetched as sparse ranges (pushed down to the server on remote runs), and
// the bytes/img column prices the subset. Records mode measures the
// filtered streaming scan; with -loader the filter rides the batch
// pipeline.
//
// The repository's regression benchmark is bench/ (go run ./bench); this
// tool is for pointing the same readers at a dataset or server of your own.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/pcr"
)

func main() {
	dir := flag.String("dataset", "", "dataset directory or pcrserved URL(s) (http://host:port, comma-separated fleet seeds allowed)")
	formatName := flag.String("format", "pcr", "storage format: pcr, tfrecord, fileperimage")
	workers := flag.Int("workers", 8, "parallel readers (decode workers for stream formats)")
	passes := flag.Int("passes", 3, "passes over the dataset per quality level")
	decode := flag.Bool("decode", false, "also decode every image")
	cacheMB := flag.Int64("cache-mb", 0, "LRU prefix cache budget in MiB (0 = no cache)")
	loaderMode := flag.Bool("loader", false, "benchmark the batch pipeline (pcr.Loader) instead of raw record reads")
	batch := flag.Int("batch", 32, "batch size for -loader")
	quality := flag.Int("quality", 0, "read quality for -loader (0 = full)")
	diskDir := flag.String("disk-cache-dir", "", "persistent prefix cache directory (enables the cold-vs-warm comparison)")
	diskMB := flag.Int64("disk-cache-mb", 1024, "persistent prefix cache budget in MiB")
	filter := flag.String("filter", "", `restrict to matching samples, e.g. "label IN (3, 7)" (pcr format only)`)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "pcrbench: -dataset is required")
		os.Exit(2)
	}
	cfg := benchConfig{
		dir: *dir, format: *formatName, workers: *workers, passes: *passes,
		decode: *decode, cacheMB: *cacheMB, loader: *loaderMode, batch: *batch,
		quality: *quality, diskDir: *diskDir, diskMB: *diskMB,
		filter: *filter,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "pcrbench:", err)
		os.Exit(1)
	}
}

type benchConfig struct {
	dir, format     string
	workers, passes int
	decode          bool
	cacheMB         int64
	loader          bool
	batch, quality  int
	diskDir         string
	diskMB          int64
	filter          string
}

func run(cfg benchConfig) error {
	dir, formatName := cfg.dir, cfg.format
	workers, passes, decode, cacheMB := cfg.workers, cfg.passes, cfg.decode, cfg.cacheMB
	format, err := pcr.FormatByName(formatName)
	if err != nil {
		return err
	}
	opts := []pcr.Option{
		pcr.WithPrefetchWorkers(workers),
		pcr.WithCacheBytes(cacheMB << 20),
	}
	if cfg.diskDir != "" {
		opts = append(opts, pcr.WithDiskCache(cfg.diskDir, cfg.diskMB<<20))
	}
	var ds *pcr.Dataset
	remote := strings.HasPrefix(dir, "http://") || strings.HasPrefix(dir, "https://")
	if remote {
		if format != pcr.PCR {
			return fmt.Errorf("remote serving is pcr-format only; drop -format %s", formatName)
		}
		ds, err = pcr.OpenRemote(dir, opts...)
	} else {
		ds, err = pcr.Open(dir, append(opts, pcr.WithFormat(format))...)
	}
	if err != nil {
		return err
	}
	defer ds.Close()
	var pred pcr.Predicate
	if cfg.filter != "" {
		if format != pcr.PCR {
			return fmt.Errorf("-filter requires the pcr format, not %s", formatName)
		}
		if pred, err = pcr.ParseFilter(cfg.filter); err != nil {
			return err
		}
	}
	if cfg.loader {
		return runLoader(ds, cfg, remote, pred)
	}
	mode := fmt.Sprintf("%d parallel readers", workers)
	if format != pcr.PCR {
		mode = fmt.Sprintf("single reader stream, %d decode workers", workers)
	}
	if pred != nil {
		mode = fmt.Sprintf("filtered stream %q, %d decode workers", pred, workers)
	}
	if remote {
		mode += ", remote"
	}
	fmt.Printf("dataset %s (%s): %d records, %d images, %d quality levels; %s, decode=%v\n",
		dir, ds.Format().Name(), ds.NumRecords(), ds.NumImages(), ds.Qualities(), mode, decode)
	fmt.Printf("%8s %12s %12s %14s %12s\n", "quality", "images/s", "bytes/img", "bandwidth", "elapsed")

	fetchedSoFar := func() (int64, bool) {
		stats, ok := ds.CacheStats()
		return stats.BytesFetched, ok
	}
	for q := 1; q <= ds.Qualities(); q++ {
		size, err := ds.SizeAtQuality(q)
		if err != nil {
			return err
		}
		before, cached := fetchedSoFar()
		var images int64
		var fstats pcr.FilterStats
		start := time.Now()
		switch {
		case pred != nil:
			images, fstats, err = benchFiltered(ds, q, passes, decode, pred)
		case format == pcr.PCR:
			images, err = benchRecords(ds, q, workers, passes, decode)
		default:
			images, err = benchStream(ds, q, passes, decode)
		}
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		// Bytes read per sample is the quality level's cost in the paper's
		// currency (§3, Figure 16) — the column that makes a local-disk run
		// and a remote pcrserved run directly comparable. With a prefix
		// cache the counters report what actually moved (later passes and
		// already-cached prefixes cost nothing); without one, every pass
		// reads the full working set.
		moved := int64(size) * int64(passes)
		if cached {
			after, _ := fetchedSoFar()
			moved = after - before
		} else if pred != nil {
			moved = fstats.BytesRead
		}
		if pred != nil {
			fmt.Printf("         filter q%d: %d selected, %d skipped (%d records whole); %d bytes read, %d avoided\n",
				q, fstats.Selected, fstats.Skipped, fstats.RecordsSkipped, fstats.BytesRead, fstats.BytesAvoided)
		}
		// An empty dataset or a sub-resolution elapsed time would print
		// NaN/+Inf; degenerate rows show "-" instead.
		fmt.Printf("%8d %12s %12s %14s %12v\n",
			q,
			ratio(float64(images), elapsed.Seconds(), "%.0f"),
			ratio(float64(moved), float64(images), "%.0f"),
			ratio(float64(moved)/1e6, elapsed.Seconds(), "%.1f MB/s"),
			elapsed.Round(time.Millisecond))
	}
	if stats, ok := ds.CacheStats(); ok {
		fmt.Printf("cache: %d hits, %d upgrade hits, %d misses, %d evictions, %d bytes fetched\n",
			stats.Hits, stats.UpgradeHits, stats.Misses, stats.Evictions, stats.BytesFetched)
	}
	return nil
}

// ratio formats num/den with the given verb, or "-" when the denominator
// is not positive (empty dataset, sub-resolution elapsed time).
func ratio(num, den float64, verb string) string {
	if den <= 0 {
		return "-"
	}
	return fmt.Sprintf(verb, num/den)
}

// runLoader benchmarks the batch pipeline: each pass is one Loader epoch.
// The upstream column is what actually moved past the disk cache (network
// bytes for a remote run) — with -disk-cache-dir, epoch 0 is the cold fill
// and later epochs are warm.
func runLoader(ds *pcr.Dataset, cfg benchConfig, remote bool, pred pcr.Predicate) error {
	lopts := []pcr.LoaderOption{
		pcr.WithBatchSize(cfg.batch),
		pcr.WithQuality(cfg.quality),
	}
	if pred != nil {
		lopts = append(lopts, pcr.WithLoaderFilter(pred))
	}
	l, err := pcr.NewLoader(ds, lopts...)
	if err != nil {
		return err
	}
	where := "local"
	if remote {
		where = "remote"
	}
	fmt.Printf("dataset %s (%s, %s): %d records, %d images, %d quality levels; loader batch=%d decode-workers=%d\n",
		cfg.dir, ds.Format().Name(), where, ds.NumRecords(), ds.NumImages(), ds.Qualities(), cfg.batch, cfg.workers)
	fmt.Printf("%8s %12s %12s %12s %12s %14s\n", "epoch", "images/s", "bytes/img", "stall", "elapsed", "upstream MB")

	upstream := func() (int64, bool) {
		if st, ok := ds.DiskCacheStats(); ok {
			return st.BytesFetched, true
		}
		if st, ok := ds.CacheStats(); ok {
			return st.BytesFetched, true
		}
		return 0, false
	}
	type row struct {
		imgsPerSec float64
		upstream   int64
		tracked    bool
	}
	var rows []row
	ctx := context.Background()
	for epoch := 0; epoch < cfg.passes; epoch++ {
		before, tracked := upstream()
		for _, err := range l.Epoch(ctx, epoch) {
			if err != nil {
				return err
			}
		}
		st, ok := l.LastEpochStats()
		if !ok {
			return fmt.Errorf("no stats after epoch %d", epoch)
		}
		moved := st.BytesRead
		if tracked {
			after, _ := upstream()
			moved = after - before
		}
		fmt.Printf("%8d %12s %12s %12v %12v %14s\n",
			epoch,
			ratio(float64(st.Images), st.Wall.Seconds(), "%.0f"),
			ratio(float64(st.BytesRead), float64(st.Images), "%.0f"),
			st.Stall.Round(time.Millisecond),
			st.Wall.Round(time.Millisecond),
			ratio(float64(moved)/1e6, 1, "%.2f"))
		rows = append(rows, row{imgsPerSec: st.ImagesPerSec, upstream: moved, tracked: tracked})
	}
	if pred != nil {
		if st, ok := l.LastEpochStats(); ok {
			fmt.Printf("filter %q: last epoch delivered %d images, skipped %d; %.2f MB read, %.2f MB avoided\n",
				pred, st.Images, st.SkippedImages, float64(st.BytesRead)/1e6, float64(st.BytesAvoided)/1e6)
		}
	}
	if st, ok := ds.DiskCacheStats(); ok && len(rows) >= 2 {
		cold, warm := rows[0], rows[len(rows)-1]
		fmt.Printf("\ndisk cache cold vs warm:\n")
		fmt.Printf("%8s %12s %14s\n", "", "images/s", "upstream MB")
		fmt.Printf("%8s %12.0f %14.2f\n", "cold", cold.imgsPerSec, float64(cold.upstream)/1e6)
		fmt.Printf("%8s %12.0f %14.2f\n", "warm", warm.imgsPerSec, float64(warm.upstream)/1e6)
		fmt.Printf("cache: %d hits, %d delta hits, %d misses, %d evictions; %d entries recovered warm\n",
			st.Hits, st.DeltaHits, st.Misses, st.Evictions, st.Recovered)
	}
	return nil
}

// benchRecords drives the §A.5 structure: worker goroutines pull record
// indices from a shared queue and issue independent prefix reads.
func benchRecords(ds *pcr.Dataset, q, workers, passes int, decode bool) (int64, error) {
	work := make(chan int, ds.NumRecords()*passes)
	for p := 0; p < passes; p++ {
		for r := 0; r < ds.NumRecords(); r++ {
			work <- r
		}
	}
	close(work)

	ctx := context.Background()
	var images int64
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for t := 0; t < workers; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				var samples []pcr.Sample
				var err error
				if decode {
					samples, err = ds.ReadRecord(ctx, r, q)
				} else {
					samples, err = ds.ReadRecordEncoded(r, q)
				}
				if err != nil {
					errCh <- err
					return
				}
				atomic.AddInt64(&images, int64(len(samples)))
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return images, err
	default:
	}
	return images, nil
}

// benchFiltered measures the queryable-dataset path: one sequential
// filtered scan per pass (predicate pushdown inside the reader — sparse
// range reads locally, bitmap pushdown against a server), with Scan's
// worker pool handling decode when requested. The aggregated FilterStats
// across all passes report what the filter read and what it avoided.
func benchFiltered(ds *pcr.Dataset, q, passes int, decode bool, pred pcr.Predicate) (int64, pcr.FilterStats, error) {
	ctx := context.Background()
	var images int64
	var agg pcr.FilterStats
	for p := 0; p < passes; p++ {
		var fs pcr.FilterStats
		scan := ds.ScanEncoded
		if decode {
			scan = ds.Scan
		}
		for _, err := range scan(ctx, q, pcr.WithFilter(pred), pcr.WithFilterStats(&fs)) {
			if err != nil {
				return images, agg, err
			}
			images++
		}
		agg.Selected += fs.Selected
		agg.Skipped += fs.Skipped
		agg.RecordsSkipped += fs.RecordsSkipped
		agg.BytesRead += fs.BytesRead
		agg.BytesAvoided += fs.BytesAvoided
	}
	return images, agg, nil
}

// benchStream measures formats that only stream: one sequential reader,
// with Scan's worker pool handling decode when requested.
func benchStream(ds *pcr.Dataset, q, passes int, decode bool) (int64, error) {
	ctx := context.Background()
	var images int64
	for p := 0; p < passes; p++ {
		scan := ds.ScanEncoded
		if decode {
			scan = ds.Scan
		}
		for _, err := range scan(ctx, q) {
			if err != nil {
				return images, err
			}
			images++
		}
	}
	return images, nil
}
