package pcr

import (
	"fmt"
	"time"
)

// config is the resolved option set shared by Create and Open.
type config struct {
	format          Format
	imagesPerRecord int
	scanGroups      int
	cacheBytes      int64
	workers         int
	jpegQuality     int
	diskCacheDir    string
	diskCacheBytes  int64
	shard           int
	shards          int // 1 = the whole dataset
	hedgeDelay      time.Duration
	hedgeSet        bool
}

func defaultConfig() *config {
	return &config{
		format:          PCR,
		imagesPerRecord: 64,
		jpegQuality:     90,
		shards:          1,
	}
}

// Option configures Create, Open, and the helpers built on them.
type Option func(*config) error

func applyOptions(opts []Option) (*config, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(cfg); err != nil {
			return nil, err
		}
	}
	return cfg, nil
}

// WithFormat selects the storage layout: PCR (default), TFRecord, or
// FilePerImage.
func WithFormat(f Format) Option {
	return func(c *config) error {
		if f == nil {
			return fmt.Errorf("pcr: nil format")
		}
		c.format = f
		return nil
	}
}

// WithImagesPerRecord sets the record batching factor for record-based
// formats (the paper uses ~1024 at ImageNet scale; the default 64 suits
// small datasets). FilePerImage ignores it.
func WithImagesPerRecord(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("pcr: images per record must be positive, got %d", n)
		}
		c.imagesPerRecord = n
		return nil
	}
}

// WithScanGroups coalesces the progressive scans of each image into n scan
// groups, so the dataset exposes exactly n quality levels (PCR format only;
// default one group per scan, 10 for color JPEG). Fewer groups mean fewer
// index entries and coarser quality steps — the paper's §3.1 knob.
func WithScanGroups(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("pcr: scan groups must be non-negative, got %d", n)
		}
		c.scanGroups = n
		return nil
	}
}

// WithCacheBytes gives the dataset's tier stack, the one the server reads
// through too, a memory tier: an LRU of record prefixes of the given byte
// budget. Because every PCR quality level is a prefix of the same byte
// stream, a record cached at a low quality is upgraded in place by fetching
// only the missing delta (§5 of the paper). Zero (the default) mounts none.
func WithCacheBytes(n int64) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("pcr: cache bytes must be non-negative, got %d", n)
		}
		c.cacheBytes = n
		return nil
	}
}

// WithDiskCache mounts a persistent disk tier (internal/diskcache) of the
// given byte budget at dir in the dataset's tier stack, under the
// WithCacheBytes memory tier. Record prefixes are stored as append-only
// files keyed by a fingerprint of the dataset's index, so a restarted
// worker reads warm local bytes instead of re-fetching, and a quality
// upgrade appends only the delta bytes. Each recovered entry's CRC is
// checked on its first read; a torn or corrupt entry is refetched, never
// served. The directory must belong to one process at a time. PCR format
// only.
func WithDiskCache(dir string, maxBytes int64) Option {
	return func(c *config) error {
		if dir == "" {
			return fmt.Errorf("pcr: empty disk cache directory")
		}
		if maxBytes <= 0 {
			return fmt.Errorf("pcr: disk cache bytes must be positive, got %d", maxBytes)
		}
		c.diskCacheDir = dir
		c.diskCacheBytes = maxBytes
		return nil
	}
}

// WithShard opens stride shard index of count of a PCR dataset, local or
// remote: a dataset holding exactly the records r with r % count == index,
// renumbered from 0 in storage order. The count workers of a data-parallel
// job each open their own shard — disjoint, covering every record, and
// balanced to within one record — and drive it with a Loader as they would
// a whole dataset. A remote worker downloads only its share of the index
// (GET /index?shard=i&nshards=n). A shard with no records is refused at
// open; shard 0 of 1 is the whole dataset. The shard view is what a disk
// cache (WithDiskCache) is keyed by, and what record indices —
// QualityPolicy.RecordQuality's included — count.
func WithShard(index, count int) Option {
	return func(c *config) error {
		if count <= 0 {
			return fmt.Errorf("pcr: shard count must be positive, got %d", count)
		}
		if index < 0 || index >= count {
			return fmt.Errorf("pcr: shard index %d out of range [0,%d)", index, count)
		}
		c.shard, c.shards = index, count
		return nil
	}
}

// WithHedgeDelay tunes the remote client's tail-latency hedging: a record
// read whose first attempt has been in flight longer than
// max(floor, p99-derived delay) is re-sent to the record's next replica,
// and the first response wins. floor raises (or, at zero, keeps) the
// default 25ms minimum delay; a negative floor disables hedging entirely —
// reads then rely on error-driven failover alone, which keeps server byte
// counters exact (no redundant requests ever land). Only meaningful
// against a replicated fleet; OpenRemote only.
func WithHedgeDelay(floor time.Duration) Option {
	return func(c *config) error {
		c.hedgeDelay = floor
		c.hedgeSet = true
		return nil
	}
}

// WithPrefetchWorkers sets how many goroutines decode images for Scan,
// ReadRecord, Loader.Epoch and Probe.Batches (the paper's loader uses 4–8
// prefetch threads): a fixed set per call, each taking runs of eight samples
// of one record. It does not set how many record reads are in flight — that
// is a constant four. The default 4 applies when n is not set.
func WithPrefetchWorkers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("pcr: prefetch workers must be non-negative, got %d", n)
		}
		c.workers = n
		return nil
	}
}

// WithJPEGQuality sets the quantization quality used when Append must encode
// a Sample.Image into JPEG (default 90). Samples appended with explicit JPEG
// bytes are stored as-is.
func WithJPEGQuality(q int) Option {
	return func(c *config) error {
		if q < 1 || q > 100 {
			return fmt.Errorf("pcr: jpeg quality %d out of range [1,100]", q)
		}
		c.jpegQuality = q
		return nil
	}
}

func (c *config) prefetchWorkers() int {
	if c.workers <= 0 {
		return 4
	}
	return c.workers
}
