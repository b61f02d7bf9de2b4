package pcr

import (
	"fmt"
	"image"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/jpegc"
)

type pcrFormat struct{}

func (pcrFormat) Name() string { return "pcr" }

func (pcrFormat) create(dir string, cfg *config) (formatWriter, error) {
	w, err := core.CreateDataset(dir, &core.DatasetOptions{
		ImagesPerRecord: cfg.imagesPerRecord,
		ScanGroups:      cfg.scanGroups,
	})
	if err != nil {
		return nil, err
	}
	return &pcrWriter{w: w}, nil
}

func (pcrFormat) open(dir string, cfg *config) (formatReader, error) {
	ds, err := core.OpenDataset(dir)
	if err != nil {
		return nil, err
	}
	if cfg.shards > 1 {
		// The shard view over the same files: what a server sends a remote
		// worker for /index?shard=i&nshards=n.
		view, err := core.OpenDatasetIndex(ds.Index().Shard(cfg.shard, cfg.shards), ds.Backend())
		if err != nil {
			ds.Close()
			return nil, err
		}
		ds = view
	}
	r, err := newPCRReader(ds, cfg)
	if err != nil {
		ds.Close()
		return nil, err
	}
	return r, nil
}

// newPCRReader refuses an empty shard and wires the optional cache tiers
// over a dataset opened against any Backend — the shared tail of Open
// (local disk) and OpenRemote (HTTP prefix server). The persistent disk cache
// (WithDiskCache) decorates the storage backend itself, so it sits under
// the in-memory LRU (WithCacheBytes): a read misses memory, then disk,
// then goes upstream — and each tier fills with exactly the delta bytes.
func newPCRReader(ds *core.Dataset, cfg *config) (*pcrReader, error) {
	if cfg.shards > 1 && ds.NumRecords() == 0 {
		return nil, fmt.Errorf("pcr: shard %d of %d holds no records", cfg.shard, cfg.shards)
	}
	disk, err := diskcache.Mount(ds, cfg.diskCacheDir, cfg.diskCacheBytes)
	if err != nil {
		return nil, err
	}
	r := &pcrReader{ds: ds, records: ds.Index().Records, disk: disk, prefixes: make(freeList[[]byte], readAhead)}
	if cfg.cacheBytes > 0 {
		c, err := cache.New(cfg.cacheBytes, r.fetchRange)
		if err != nil {
			return nil, err
		}
		r.cache = c
	}
	return r, nil
}

type pcrWriter struct{ w *core.DatasetWriter }

func (w *pcrWriter) append(s Sample) error {
	return w.w.Append(core.Sample{ID: s.ID, Label: s.Label, JPEG: s.JPEG})
}

func (w *pcrWriter) close() error { return w.w.Close() }

// pcrReader reads record prefixes, optionally through the in-memory LRU
// prefix cache and the persistent disk tier beneath it.
type pcrReader struct {
	ds *core.Dataset
	// records is the dataset's index, which every read is planned from
	// (recordPlan).
	records []core.RecordInfo
	cache   *cache.Cache
	disk    *diskcache.Backend
	// prefixes are the buffers of tierless prefix reads whose samples have
	// been spliced out, for the next such read to read into; as many as
	// the pipeline reads ahead.
	prefixes freeList[[]byte]
}

func (r *pcrReader) numImages() int { return r.ds.NumImages() }
func (r *pcrReader) qualities() int { return r.ds.NumGroups }

func (r *pcrReader) close() error {
	for len(r.prefixes) > 0 {
		r.prefixes.take()
	}
	return r.ds.Close()
}

// record is record i's index entry.
func (r *pcrReader) record(i int) (*core.RecordInfo, error) {
	if i < 0 || i >= len(r.records) {
		return nil, fmt.Errorf("pcr: record %d out of range", i)
	}
	return &r.records[i], nil
}

func (r *pcrReader) sizeAtQuality(q int) (int64, error) {
	var total int64
	for i := range r.records {
		re := &r.records[i]
		total += re.Prefixes[re.ClampGroup(q)]
	}
	return total, nil
}

// fetchRange is the cache's backing fetcher: one ranged read of a record
// through the dataset's storage Backend (local disk or a remote prefix
// server). The cache calls it with offset == 0 on a miss and offset ==
// cached length on a quality upgrade, so reads stay sequential per record
// — and a remote upgrade becomes a single HTTP Range request for only the
// delta bytes.
func (r *pcrReader) fetchRange(record int, offset, length int64) ([]byte, error) {
	return r.ds.ReadRecordRange(record, offset, length)
}

// readRecord is the fetch stage's one record read: it carries out the read
// recordPlan decided and priced, and delivers the samples it selects, still
// encoded, skipping those inside a resume prefix before any is spliced. A
// whole-prefix read goes through the cache tiers when they are mounted and
// reassembles the selected samples from the prefix; a sparse read fetches
// only the metadata section and the selected samples' slices (gather) and
// assembles the samples straight from those bytes.
//
// Every sample's JPEG is a copy (RecordMeta.SampleJPEG), so a tierless
// prefix read is the prefix's only holder: it reads into a buffer of the
// reader's free list and gives the buffer it got back once the samples are
// spliced out. A read through a tier never borrows one: the memory tier
// keeps the prefix it returns, and the disk tier reads through buffers of
// its own.
func (r *pcrReader) readRecord(pl *readPlan) recordRead {
	var (
		meta    *core.RecordMeta
		prefix  []byte   // of a whole-prefix read
		streams [][]byte // of a sparse read: the selected samples, assembled
		err     error
	)
	switch {
	case pl.ranges != nil:
		var body []byte
		if body, err = r.gather(pl); err == nil {
			meta, streams, err = core.AssembleSamples(body, pl.group, pl.sel)
		}
	case r.cache != nil:
		if prefix, err = r.cache.Get(pl.rec, pl.bytes); err == nil {
			meta, err = r.ds.ParseRecordPrefix(pl.rec, prefix)
		}
	case r.disk != nil:
		if prefix, err = r.ds.ReadRecordRange(pl.rec, 0, pl.bytes); err == nil {
			meta, err = r.ds.ParseRecordPrefix(pl.rec, prefix)
		}
	default:
		if prefix, err = r.ds.ReadRecordRangeInto(r.prefixes.take(), pl.rec, 0, pl.bytes); err == nil {
			defer r.prefixes.give(prefix)
			meta, err = r.ds.ParseRecordPrefix(pl.rec, prefix)
		}
	}
	if err != nil {
		return recordRead{err: err}
	}
	rr := recordRead{quality: pl.quality, bytes: pl.bytes, samples: make([]Sample, 0, max(len(meta.Samples)-pl.from, 0))}
	skip := pl.from
	for si := range meta.Samples {
		if pl.sel != nil && !pl.sel[si] {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		sm := &meta.Samples[si]
		var stream []byte
		if streams != nil {
			stream = streams[si]
		} else if stream, err = meta.SampleJPEG(prefix, si, pl.group); err != nil {
			return recordRead{err: err}
		}
		rr.samples = append(rr.samples, Sample{ID: sm.ID, Label: sm.Label, JPEG: stream})
	}
	return rr
}

// gather fetches a sparse read's bytes — those of its ranges, concatenated
// in order — as one pushdown request when the backend takes the selection
// (remote) or as a read per range (local).
func (r *pcrReader) gather(pl *readPlan) ([]byte, error) {
	if sr, ok := r.ds.Backend().(core.SampleReader); ok {
		return sr.ReadSamples(r.records[pl.rec].Name, pl.group, pl.sel)
	}
	body := make([]byte, 0, pl.bytes)
	for _, rg := range pl.ranges {
		part, err := r.ds.ReadRecordRange(pl.rec, rg.Offset, rg.Length)
		if err != nil {
			return nil, err
		}
		body = append(body, part...)
	}
	return body, nil
}

// decodeJPEG decodes s.JPEG into s.Image, reusing reuse's planes when it is
// a frame of the same geometry (jpegc.DecodeInto); the pipeline's decode
// workers are its one caller.
func decodeJPEG(s *Sample, reuse image.Image) error {
	img, err := jpegc.DecodeInto(s.JPEG, reuse)
	if err != nil {
		return fmt.Errorf("pcr: decoding sample %d: %w", s.ID, err)
	}
	s.Image = img
	return nil
}
