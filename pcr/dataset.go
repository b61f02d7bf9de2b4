package pcr

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync"

	"repro/internal/cache"
	"repro/internal/diskcache"
	"repro/internal/serve"
)

// CacheStats snapshots the prefix cache's counters (see WithCacheBytes).
type CacheStats = cache.Stats

// DiskCacheStats snapshots the persistent disk tier's counters (see
// WithDiskCache).
type DiskCacheStats = diskcache.Stats

// Dataset is an opened dataset in any Format. Scans are safe to run
// concurrently with each other and with Close. Close invalidates the
// dataset: any operation started after Close fails with ErrClosed, and a
// scan in flight when Close runs observes the close at a sample boundary
// and terminates with ErrClosed (it never yields partial or corrupt data).
type Dataset struct {
	r formatReader
	// pcr is r when the format is PCR — the record-granular reader every
	// record read, plan and cache tier belongs to — and nil otherwise.
	pcr *pcrReader
	cfg *config
	// cluster is the fleet-aware client of a remote dataset (nil for
	// local datasets), kept for ClusterStats.
	cluster *serve.ClusterClient
	closing sync.Once
	closed  chan struct{} // closed by Close
}

func newDataset(r formatReader, cfg *config, cluster *serve.ClusterClient) *Dataset {
	d := &Dataset{r: r, cfg: cfg, cluster: cluster, closed: make(chan struct{})}
	d.pcr, _ = r.(*pcrReader)
	return d
}

// errScanClosed is how a read that meets a closed dataset ends.
var errScanClosed = fmt.Errorf("pcr: scan: %w", ErrClosed)

// Open opens the dataset at dir. The Format option must match the layout on
// disk (PCR by default); cache and prefetch options configure the read path.
func Open(dir string, opts ...Option) (*Dataset, error) {
	cfg, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if cfg.diskCacheDir != "" && cfg.format != PCR {
		return nil, fmt.Errorf("pcr: disk cache supports the pcr format only, not %s", cfg.format.Name())
	}
	if cfg.shards > 1 && cfg.format != PCR {
		return nil, fmt.Errorf("pcr: WithShard supports the pcr format only, not %s", cfg.format.Name())
	}
	if cfg.hedgeSet {
		return nil, fmt.Errorf("pcr: WithHedgeDelay applies to OpenRemote; local reads have no replicas to hedge against")
	}
	r, err := cfg.format.open(dir, cfg)
	if err != nil {
		return nil, err
	}
	return newDataset(r, cfg, nil), nil
}

// Close releases the dataset. It is safe to call concurrently with running
// scans (which terminate with ErrClosed at their next sample boundary) and
// is idempotent: only the first call releases the underlying reader.
func (d *Dataset) Close() error {
	var err error
	d.closing.Do(func() {
		close(d.closed)
		err = d.r.close()
	})
	return err
}

func (d *Dataset) isClosed() bool {
	select {
	case <-d.closed:
		return true
	default:
		return false
	}
}

// Format returns the dataset's storage layout.
func (d *Dataset) Format() Format { return d.cfg.format }

// NumImages returns the total stored image count.
func (d *Dataset) NumImages() int { return d.r.numImages() }

// Qualities returns the number of quality levels the dataset stores: the
// scan-group count for PCR datasets, 1 for the baseline formats.
func (d *Dataset) Qualities() int { return d.r.qualities() }

// resolveQuality maps Full to the top level and rejects levels the dataset
// does not store.
func (d *Dataset) resolveQuality(q int) (int, error) {
	if d.isClosed() {
		return 0, errScanClosed
	}
	top := d.r.qualities()
	if q == Full {
		return top, nil
	}
	if q < 1 || q > top {
		return 0, fmt.Errorf("pcr: quality %d: %w (dataset stores 1..%d)", q, ErrNoSuchQuality, top)
	}
	return q, nil
}

// SizeAtQuality returns the total bytes a full scan reads at quality q —
// the paper's bytes-vs-quality trade-off, computed from the record index
// without touching record files.
func (d *Dataset) SizeAtQuality(q int) (int64, error) {
	qq, err := d.resolveQuality(q)
	if err != nil {
		return 0, err
	}
	return d.r.sizeAtQuality(qq)
}

// ScanEncoded streams every sample in storage order at quality q, filling
// Sample.JPEG with a self-contained stream (PCR samples are reassembled from
// the record prefix) but not decoding it. It is the read pipeline
// (pipeline.go) with no decode stage: on a PCR dataset up to four record
// reads are in flight ahead of the consumer and are handed over in storage
// order, so an early break may have fetched up to four records it did not
// yield; a baseline format's per-sample stream is read ahead of it in runs
// of eight. Iteration stops at the first error; cancelling ctx stops it
// promptly with ctx.Err(), and closing the dataset with ErrClosed, even
// while a read is blocked. WithFilter restricts the stream to the samples a
// predicate selects, pushing the selection into the read plan where the
// format allows it.
func (d *Dataset) ScanEncoded(ctx context.Context, q int, opts ...ScanOption) iter.Seq2[Sample, error] {
	return d.scan(ctx, q, opts, false)
}

// sampleScanner is how the baseline formats, which have no record access,
// are scanned: scanEncoded streams every sample in storage order at quality
// q (1..qualities()), filling Sample.JPEG with a decodable stream, and stops
// early when ctx is cancelled (yielding ctx.Err()) or the consumer breaks.
// Every formatReader but the PCR reader is one.
type sampleScanner interface {
	scanEncoded(ctx context.Context, q int) iter.Seq2[Sample, error]
}

var (
	_ sampleScanner = (*tfrecordReader)(nil)
	_ sampleScanner = (*fpiReader)(nil)
)

// Scan streams every sample in storage order at quality q with Image
// decoded, through the decode pipeline (pipeline.go): on a PCR dataset up to
// four record prefixes are read ahead of the consumer (through the LRU
// prefix cache when WithCacheBytes is set) and their samples are decoded in
// runs of eight by WithPrefetchWorkers goroutines; a baseline format's
// per-sample stream is cut into runs for the same workers. Memory is bounded
// as Loader.Epoch states it, less the batch. Samples are yielded in storage
// order. Iteration stops at the first error; cancelling ctx stops it
// promptly with ctx.Err(), and closing the dataset with ErrClosed, even
// while a read is blocked. WithFilter restricts the stream to the samples a
// predicate selects (see ScanEncoded); records it excludes are not read and
// only selected samples are decoded.
func (d *Dataset) Scan(ctx context.Context, q int, opts ...ScanOption) iter.Seq2[Sample, error] {
	return d.scan(ctx, q, opts, true)
}

// scan is Scan (decode true) and ScanEncoded, both through the pipeline: a
// PCR dataset's scan plan through its fetch stage, a baseline format's
// per-sample stream cut into runs by its chunk stage.
func (d *Dataset) scan(ctx context.Context, q int, opts []ScanOption, decode bool) iter.Seq2[Sample, error] {
	qq, err := d.resolveQuality(q)
	if err != nil {
		return errSeq(err)
	}
	sc, err := applyScanOptions(opts)
	if err != nil {
		return errSeq(err)
	}
	source := func(p *pipeline) { p.chunk(d.r.(sampleScanner).scanEncoded(p.ctx, qq), sc.pred) }
	if d.pcr != nil {
		// A plan is used up as it is walked: each range gets its own.
		source = func(p *pipeline) { p.fetch(d.scanPlan(qq, sc.pred)) }
	}
	return func(yield func(Sample, error) bool) {
		for r, err := range d.pipeline(ctx, decode, nil, source) {
			if err != nil {
				yield(Sample{}, err)
				return
			}
			for _, s := range r.samples {
				if !yield(s, nil) {
					return
				}
			}
		}
	}
}

// scanPlan is the read plan of a scan at quality qq over storage order,
// restricted to what pred selects (when non-nil).
func (d *Dataset) scanPlan(qq int, pred Predicate) *recordPlan {
	return &recordPlan{d: d, order: storageOrder(d.NumRecords()), policy: FixedQuality(qq), filter: pred}
}

// storageOrder is records 0..n-1 in storage order.
func storageOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

func errSeq(err error) iter.Seq2[Sample, error] {
	return func(yield func(Sample, error) bool) {
		yield(Sample{}, err)
	}
}

// NumRecords returns the on-disk record count: batched records for PCR, one
// per image for the baseline formats.
func (d *Dataset) NumRecords() int {
	if d.pcr == nil {
		return d.r.numImages()
	}
	return d.pcr.ds.NumRecords()
}

// pcrOnly is the PCR reader behind the record-granular methods, or
// errors.ErrUnsupported naming the format that has none.
func (d *Dataset) pcrOnly(what string) (*pcrReader, error) {
	if d.pcr == nil {
		return nil, fmt.Errorf("pcr: %s on %s format: %w", what, d.cfg.format.Name(), errors.ErrUnsupported)
	}
	return d.pcr, nil
}

// RecordImages returns the image count of record i (PCR format only).
func (d *Dataset) RecordImages(i int) (int, error) {
	r, err := d.pcrOnly("record access")
	if err != nil {
		return 0, err
	}
	re, err := r.record(i)
	if err != nil {
		return 0, err
	}
	return re.Samples, nil
}

// RecordPrefixLen returns the bytes one sequential read fetches to
// materialize record i at quality q (PCR format only). It comes from the
// record index, not the record file.
func (d *Dataset) RecordPrefixLen(i, q int) (int64, error) {
	r, err := d.pcrOnly("record access")
	if err != nil {
		return 0, err
	}
	qq, err := d.resolveQuality(q)
	if err != nil {
		return 0, err
	}
	re, err := r.record(i)
	if err != nil {
		return 0, err
	}
	return re.Prefixes[re.ClampGroup(qq)], nil
}

// onePlan is the plan of one read of record i at quality q, the random
// access methods' (PCR format only).
func (d *Dataset) onePlan(i, q int) (*recordPlan, error) {
	if _, err := d.pcrOnly("record access"); err != nil {
		return nil, err
	}
	qq, err := d.resolveQuality(q)
	if err != nil {
		return nil, err
	}
	return &recordPlan{d: d, order: []int{i}, policy: FixedQuality(qq)}, nil
}

// ReadRecordEncoded materializes every image of record i at quality q as
// reassembled JPEG streams, without decoding — one sequential prefix read,
// planned as a plan of one record (PCR format only).
func (d *Dataset) ReadRecordEncoded(i, q int) ([]Sample, error) {
	plan, err := d.onePlan(i, q)
	if err != nil {
		return nil, err
	}
	read, ok, err := plan.next()
	if !ok { // an error, or a record of no images
		return nil, err
	}
	rr := d.pcr.readRecord(&read, false)
	return rr.samples, rr.err
}

// ReadRecord materializes every image of record i at quality q — the random
// access path (PCR format only); Scan is the streaming path. The record is
// read once, as a plan of one record, and decoded by WithPrefetchWorkers
// goroutines.
func (d *Dataset) ReadRecord(ctx context.Context, i, q int) ([]Sample, error) {
	plan, err := d.onePlan(i, q)
	if err != nil {
		return nil, err
	}
	var out []Sample
	for r, err := range d.pipeline(ctx, true, nil, func(p *pipeline) { p.fetch(plan) }) {
		if err != nil {
			return nil, err
		}
		out = append(out, r.samples...)
	}
	return out, nil
}

// CacheStats reports the prefix cache's counters. ok is false when the
// dataset has no cache (WithCacheBytes unset or a non-PCR format).
func (d *Dataset) CacheStats() (stats CacheStats, ok bool) {
	if d.pcr == nil {
		return CacheStats{}, false
	}
	return d.pcr.tiers.MemStats()
}

// ClusterStats reports the remote client's fleet counters — hedged reads,
// hedge wins, failovers, and membership refreshes. ok is false for local
// datasets.
func (d *Dataset) ClusterStats() (stats ClusterStats, ok bool) {
	if d.cluster == nil {
		return ClusterStats{}, false
	}
	return d.cluster.Stats(), true
}

// DiskCacheStats reports the persistent disk tier's counters — hits, delta
// bytes, evictions, and the entries recovery kept or discarded. ok is
// false when the dataset has no disk cache (WithDiskCache unset).
func (d *Dataset) DiskCacheStats() (stats DiskCacheStats, ok bool) {
	if d.pcr == nil {
		return DiskCacheStats{}, false
	}
	return d.pcr.tiers.DiskStats()
}
