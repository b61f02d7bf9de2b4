package pcr

import (
	"context"
	"fmt"
	"image"
	"iter"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cache"
)

// Batch is one assembled training batch: BatchSize decoded samples (the
// final batch of an epoch may be shorter).
type Batch struct {
	// Epoch is the epoch this batch belongs to.
	Epoch int
	// Samples have JPEG and Image filled, in the epoch's shuffled order.
	// A batch from Loader.Epoch is lent whole — the Samples slice, its
	// Images and its JPEG bytes: they are valid until the loop body that
	// received the batch returns, as bufio.Scanner's Bytes are until the
	// next Scan, and later batches are assembled in the same slice, their
	// samples decoded into the same frames and spliced into the same
	// buffers. A caller that keeps a sample past the body copies it out of
	// the slice, clones its image and keeps its JPEG with bytes.Clone. The
	// batches of Probe.Batches are the caller's.
	Samples []Sample
}

// EpochStats summarizes one completed Loader epoch — the real-I/O
// counterpart of the paper's Figure-11 quantities.
type EpochStats struct {
	// Epoch is the epoch the stats describe.
	Epoch int
	// Records, Images, and Batches count what the epoch delivered.
	Records, Images, Batches int
	// BytesRead is the record prefix bytes the epoch's reads covered (what
	// a cacheless reader moves; with WithCacheBytes the cache's own
	// counters report the delta actually fetched).
	BytesRead int64
	// MinQuality and MaxQuality bound the resolved qualities used; they
	// differ when the policy changed mid-epoch.
	MinQuality, MaxQuality int
	// Wall is the epoch's duration, including the consumer's compute time
	// between batches.
	Wall time.Duration
	// Stall is the time the consumer spent blocked waiting for the
	// pipeline (the paper's compute-stall time).
	Stall time.Duration
	// ImagesPerSec is Images / Wall.
	ImagesPerSec float64
	// Probes, ProbeBytes, and ProbeWall account the out-of-band probe reads
	// folded into this epoch: every Probe().Batches pass (one per candidate
	// quality of a §4.5 upward probe) run since the previous completed
	// epoch — e.g. at the epoch boundary — is charged to the epoch that
	// follows it. ProbeBytes counts logical record prefix bytes (with a
	// warm disk cache the network moves only the scan-group delta, visible
	// in DiskCacheStats); ProbeBytes is NOT included in BytesRead.
	Probes     int
	ProbeBytes int64
	ProbeWall  time.Duration
	// SkippedImages counts samples the WithLoaderFilter predicate rejected
	// (not delivered, not counted in Images); zero without a filter.
	SkippedImages int
	// BytesAvoided is the record bytes the filter's read plan did not
	// fetch: whole records skipped via the side index plus the unselected
	// slices of sparse reads. BytesRead + BytesAvoided is what an
	// unfiltered epoch at the same qualities would have covered.
	BytesAvoided int64
}

// Checkpoint is a Loader position: everything needed for a restarted
// worker to re-enter training mid-epoch at the same shuffled position.
// Because the shuffle is a pure function of (seed, epoch), the checkpoint
// is tiny — no record lists, just coordinates — and resuming skips the
// already-consumed prefix of the epoch without reading the skipped records
// (their lengths come from the index). Serialize it with encoding/json and
// pair it with WithDiskCache for warm-restart training: the coordinates
// restore the position, the disk cache restores the bytes.
type Checkpoint struct {
	// Epoch is the epoch in flight when the checkpoint was taken.
	Epoch int `json:"epoch"`
	// Batch counts the batches of Epoch fully delivered before the
	// checkpoint; resume re-enters at batch index Batch.
	Batch int `json:"batch"`
	// Seed, BatchSize, and Window record the loader configuration the
	// position is meaningful under; WithResume restores them. Shard and
	// Shards are the dataset's (WithShard; 0 of 1 for a whole dataset):
	// NewLoader refuses a checkpoint over any other shard. Shards 0 is a
	// checkpoint that does not say.
	Seed      int64 `json:"seed"`
	BatchSize int   `json:"batch_size"`
	Window    int   `json:"shuffle_window"`
	Shard     int   `json:"shard"`
	Shards    int   `json:"shards"`
}

// Loader is a real-I/O, multi-epoch training input pipeline over a
// record-format Dataset (local or remote, whole or a WithShard shard): it
// visits each epoch's records in a deterministic seeded windowed-shuffle
// order (WithShuffleWindow / WithLoaderSeed), reads each record's prefix at
// the quality chosen by a QualityPolicy with a bounded number of reads in
// flight, decodes samples on the dataset's fixed set of workers, and
// assembles fixed-size batches with bounded buffering — the paper's
// Appendix-A.1 loader structure running on real storage.
type Loader struct {
	ds *Dataset
	loaderConfig

	// frames are the decoded frames Epoch's consumers have handed back,
	// for its decode workers to decode into, and streams the buffers of
	// spliced JPEG streams, for its record reads to splice into; recycled
	// and recycledStreams, when set, see each frame and each buffer handed
	// back (export_test.go).
	frames          cache.FreeList[image.Image]
	streams         *cache.Buffers
	recycled        func(image.Image)
	recycledStreams func([]byte)

	mu sync.Mutex
	// shuffle draws every epoch's order, reseeded per epoch (epochOrder);
	// mu guards it.
	shuffle *rand.Rand
	last    EpochStats
	hasLast bool
	pos     Checkpoint
	hasPos  bool
	// Probe accounting pending since the last completed epoch, folded into
	// the next epoch's stats; probeSeq numbers probes for deterministic
	// record selection.
	probeSeq          int
	pendingProbes     int
	pendingProbeBytes int64
	pendingProbeWall  time.Duration
}

// loaderConfig collects LoaderOption results: what a Loader runs with.
type loaderConfig struct {
	batch     int
	window    int
	seed      int64
	policy    QualityPolicy
	filter    Predicate
	resume    Checkpoint
	hasResume bool
}

// LoaderOption configures NewLoader.
type LoaderOption func(*loaderConfig) error

// WithBatchSize sets the number of samples per batch (default 32).
func WithBatchSize(n int) LoaderOption {
	return func(c *loaderConfig) error {
		if n <= 0 {
			return fmt.Errorf("pcr: batch size must be positive, got %d", n)
		}
		c.batch = n
		return nil
	}
}

// WithShuffleWindow sets the windowed-shuffle buffer size in records
// (default 16). Shuffling is at record granularity — the unit of PCR
// sequential I/O — so larger windows trade memory-order locality for better
// mixing; a window of 1 disables shuffling (storage order), and a window of
// at least the dataset's record count gives a full uniform shuffle.
func WithShuffleWindow(n int) LoaderOption {
	return func(c *loaderConfig) error {
		if n <= 0 {
			return fmt.Errorf("pcr: shuffle window must be positive, got %d", n)
		}
		c.window = n
		return nil
	}
}

// WithLoaderSeed seeds the shuffle (default 1). The same seed yields the
// same visit order for the same epoch on every run and every re-opened
// loader; different epochs draw different orders from the same seed.
func WithLoaderSeed(seed int64) LoaderOption {
	return func(c *loaderConfig) error {
		c.seed = seed
		return nil
	}
}

// WithQuality fixes the read quality for every record (sugar for
// WithQualityPolicy(FixedQuality(q))).
func WithQuality(q int) LoaderOption {
	return WithQualityPolicy(FixedQuality(q))
}

// WithQualityPolicy installs the policy consulted for each record as its
// read is issued (default FixedQuality(Full)).
func WithQualityPolicy(p QualityPolicy) LoaderOption {
	return func(c *loaderConfig) error {
		if p == nil {
			return fmt.Errorf("pcr: nil quality policy")
		}
		c.policy = p
		return nil
	}
}

// WithResume restores a position saved by Checkpoint: the loader adopts
// the checkpoint's seed, batch size, and shuffle window (its coordinates
// are only meaningful under them — apply WithResume before any option that
// deliberately deviates), NewLoader refuses it over a dataset opened as
// another shard than the one it was taken on, and Epoch(ctx, cp.Epoch)
// skips the cp.Batch batches consumed before the restart, re-entering the
// epoch at the same shuffled position. Records wholly inside the skipped
// prefix are never read — their extents come from the index — so resuming
// deep into an epoch costs at most one partial record read. Epochs other
// than cp.Epoch stream in full.
func WithResume(cp Checkpoint) LoaderOption {
	return func(c *loaderConfig) error {
		if cp.Epoch < 0 || cp.Batch < 0 {
			return fmt.Errorf("pcr: checkpoint position (%d,%d) malformed", cp.Epoch, cp.Batch)
		}
		if cp.BatchSize > 0 {
			c.batch = cp.BatchSize
		}
		if cp.Window > 0 {
			c.window = cp.Window
		}
		c.seed = cp.Seed
		c.resume, c.hasResume = cp, true
		return nil
	}
}

// WithLoaderFilter restricts every epoch to the samples the predicate
// selects (see WithFilter): records with no matching sample are skipped
// without a read, and — without cache tiers — partially matching records
// are fetched as sparse ranges covering only the selected samples. Batches,
// shuffling, and checkpoints count only selected samples; EpochStats
// reports what the filter skipped and saved. Out-of-band Probe().Batches
// reads stay unfiltered (probes measure the quality trade-off, not the
// subset).
func WithLoaderFilter(pred Predicate) LoaderOption {
	return func(c *loaderConfig) error {
		if pred == nil {
			return fmt.Errorf("pcr: WithLoaderFilter: nil predicate")
		}
		c.filter = pred
		return nil
	}
}

// NewLoader builds a Loader over an opened Dataset. The dataset must be a
// record-granular format (PCR, local or remote); baseline formats have no
// record random access and report errors.ErrUnsupported.
func NewLoader(ds *Dataset, opts ...LoaderOption) (*Loader, error) {
	if _, err := ds.pcrOnly("loader"); err != nil {
		return nil, err
	}
	cfg := &loaderConfig{batch: 32, window: 16, seed: 1, policy: FixedQuality(Full)}
	for _, opt := range opts {
		if err := opt(cfg); err != nil {
			return nil, err
		}
	}
	if cp := cfg.resume; cfg.hasResume && cp.Shards > 0 && (cp.Shard != ds.cfg.shard || cp.Shards != ds.cfg.shards) {
		return nil, fmt.Errorf("pcr: checkpoint taken on shard %d of %d, dataset opened as shard %d of %d",
			cp.Shard, cp.Shards, ds.cfg.shard, ds.cfg.shards)
	}
	l := &Loader{
		ds:           ds,
		loaderConfig: *cfg,
		// As many frames as an epoch has decoded at once: the runs ahead of
		// the consumer and the batch being assembled (see Epoch).
		frames: make(cache.FreeList[image.Image], (2*ds.cfg.prefetchWorkers()+1)*runLen+cfg.batch),
		// As many stream buffers as an epoch has out at once: those of the
		// records read ahead and of the batch in the consumer's hands.
		streams: cache.NewBuffers(readAhead + cfg.batch),
		shuffle: rand.New(rand.NewSource(0)),
	}
	// Ground "Full" for the policy immediately: the dataset's top quality
	// is known at open, so a policy (re)started at a concrete quality below
	// full can still plan upward probes — without this, a restarted
	// ProbePolicy{Start: q} would only ever observe q and never re-ascend.
	if obs, ok := l.policy.(qualityObserver); ok {
		obs.observeQuality(ds.Qualities())
	}
	return l, nil
}

// epochSeed mixes the loader seed with the epoch (splitmix64 finalizer) so
// each epoch draws an independent but reproducible order.
func (l *Loader) epochSeed(epoch int) int64 {
	z := uint64(l.seed) + (uint64(epoch)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// epochOrder returns the record visit order for an epoch: the dataset's
// records streamed through a seeded windowed shuffle (the tf.data
// shuffle-buffer structure at record granularity). The Loader's one source,
// reseeded with the epoch's seed, draws what a new source of that seed
// would.
func (l *Loader) epochOrder(epoch int) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	rng := l.shuffle
	rng.Seed(l.epochSeed(epoch))
	n := l.ds.NumRecords()
	out := make([]int, 0, n)
	win := make([]int, 0, l.window)
	emit := func() {
		k := rng.Intn(len(win))
		out = append(out, win[k])
		win[k] = win[len(win)-1]
		win = win[:len(win)-1]
	}
	for r := range n {
		win = append(win, r)
		if len(win) >= l.window {
			emit()
		}
	}
	for len(win) > 0 {
		emit()
	}
	return out
}

// Epoch streams epoch e's batches through the decode pipeline (pipeline.go):
// the dataset's records in the epoch's shuffled order, each read at
// the quality the policy chooses for it, up to four of them read ahead of
// the consumer, their samples decoded in runs of eight by
// WithPrefetchWorkers goroutines and assembled in order into WithBatchSize
// batches. Which records are read is planned from the index alone: a record
// wholly inside a resume prefix, or one WithLoaderFilter leaves empty, is
// never read. The policy is asked at most once per record, in visit order,
// from one goroutine, as the record's read is planned (about a record that
// is read and, under a filter, about every record visited) — so a policy
// that changes its answer takes effect after the at most four records
// already read ahead.
//
// Memory is bounded, whatever the record size and the consumer's pace, by
// four records' encoded samples (read, or being read, and not yet handed
// over in full), 2·workers + 1 runs of decoded samples ahead of the
// consumer, and the batch under assembly. Iteration stops at the first
// error, which surfaces after every batch filled from the records before
// it; cancelling ctx stops it promptly with ctx.Err(), and closing the
// dataset with ErrClosed, even while a read is blocked (backend reads cannot
// be cancelled: an abandoned one finishes on its own goroutine and is
// dropped). After a complete epoch, LastEpochStats reports its counters.
//
// A batch is lent whole: its Samples slice, images and JPEG bytes are valid
// until the loop body that received it returns (see Batch). The Epoch then
// takes back the slice, clears it and assembles the next batch in it,
// hands back the batch's frames, and each buffer of spliced streams whose
// last stream is in the batch: a buffer's streams belong to consecutive
// samples, so the body has returned for every one of them. Later samples,
// of this epoch or a later one, are decoded into those frames and spliced
// into those buffers, and each record read delivers into slices an earlier
// one is done with, so that an epoch in its steady state allocates per
// epoch — its order, its one batch slice, its pipeline — and not per
// record, batch or byte. Keep a sample past the body by copying it out of
// the slice, its image by cloning it, and its JPEG with bytes.Clone.
// Between epochs the Loader holds on to no more than an epoch has out at
// once: (2·workers + 1)·8 + the batch size frames, and 4 + the batch size
// stream buffers — those of the records read ahead and of one batch — each
// of at most 1 MiB and an eighth unless it held one longer stream.
func (l *Loader) Epoch(ctx context.Context, epoch int) iter.Seq2[Batch, error] {
	return func(yield func(Batch, error) bool) {
		start := time.Now()
		// Resuming into this epoch: the first resume.Batch batches were
		// delivered before the restart.
		base := 0
		if l.hasResume && epoch == l.resume.Epoch {
			base = l.resume.Batch
		}
		plan := &recordPlan{
			d: l.ds, order: l.epochOrder(epoch), policy: l.policy, epoch: epoch,
			filter: l.filter, skip: base * l.batch, lend: l.streams,
		}

		stats := EpochStats{Epoch: epoch}
		cur := make([]Sample, 0, l.batch)
		var back [][]byte // the stream buffers whose last stream is in cur
		flush := func() bool {
			b := Batch{Epoch: epoch, Samples: cur}
			stats.Batches++
			// Advance the checkpoint position before handing the batch
			// over: a Checkpoint() taken while the consumer holds batch k
			// resumes at k+1 (take it after finishing work on the batch).
			l.mu.Lock()
			l.pos = Checkpoint{
				Epoch: epoch, Batch: base + stats.Batches,
				Seed: l.seed, BatchSize: l.batch, Window: l.window,
				Shard: l.ds.cfg.shard, Shards: l.ds.cfg.shards,
			}
			l.hasPos = true
			l.mu.Unlock()
			ok := yield(b, nil)
			for _, s := range b.Samples {
				if l.recycled != nil {
					l.recycled(s.Image)
				}
				l.frames.Give(s.Image)
			}
			for _, buf := range back {
				if l.recycledStreams != nil {
					l.recycledStreams(buf[:cap(buf)])
				}
				l.streams.Give(buf)
			}
			clear(back)
			back = back[:0]
			// The next batch is assembled in the same slice.
			clear(cur)
			cur = cur[:0]
			return ok
		}
		waiting := time.Now() // since when the consumer has been in the pipeline's hands
		for r, err := range l.ds.pipeline(ctx, true, l.frames, func(p *pipeline) { p.fetch(plan) }) {
			stats.Stall += time.Since(waiting)
			if err != nil {
				yield(Batch{}, err)
				return
			}
			if r.quality > 0 {
				stats.Records++
				stats.BytesRead += r.bytes
				if stats.MinQuality == 0 || r.quality < stats.MinQuality {
					stats.MinQuality = r.quality
				}
				stats.MaxQuality = max(stats.MaxQuality, r.quality)
			}
			stats.Images += len(r.samples)
			lent := r.lent
			for i, s := range r.samples {
				cur = append(cur, s)
				for ; len(lent) > 0 && lent[0].last == i; lent = lent[1:] {
					back = append(back, lent[0].buf)
				}
				if len(cur) == l.batch && !flush() {
					return
				}
			}
			waiting = time.Now()
		}
		stats.Stall += time.Since(waiting)
		if len(cur) > 0 && !flush() {
			return
		}
		stats.Wall = time.Since(start)
		// The plan's price is complete: the pipeline has drained.
		stats.SkippedImages = plan.price.Total - plan.price.Selected
		stats.BytesAvoided = plan.price.FullBytes - plan.price.Bytes
		if s := stats.Wall.Seconds(); s > 0 {
			stats.ImagesPerSec = float64(stats.Images) / s
		}
		l.mu.Lock()
		stats.Probes, stats.ProbeBytes, stats.ProbeWall =
			l.pendingProbes, l.pendingProbeBytes, l.pendingProbeWall
		l.pendingProbes, l.pendingProbeBytes, l.pendingProbeWall = 0, 0, 0
		l.last, l.hasLast = stats, true
		l.mu.Unlock()
	}
}

// LastEpochStats returns the statistics of the most recently completed
// epoch; ok is false until one epoch has run to completion.
func (l *Loader) LastEpochStats() (stats EpochStats, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last, l.hasLast
}

// Checkpoint returns the loader's current position — the coordinates a
// restarted worker passes to WithResume to re-enter mid-epoch where this
// one left off. Take it after finishing work on a batch: the position
// already points past that batch. ok is false before the first batch of
// the loader's life has been delivered (resume from the epoch start
// instead). The checkpoint is JSON-serializable for persistence alongside
// model weights.
func (l *Loader) Checkpoint() (cp Checkpoint, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pos, l.hasPos
}
