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
	r := &pcrReader{ds: ds, disk: disk}
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
	ds    *core.Dataset
	cache *cache.Cache
	disk  *diskcache.Backend
}

func (r *pcrReader) numImages() int { return r.ds.NumImages() }
func (r *pcrReader) qualities() int { return r.ds.NumGroups }
func (r *pcrReader) close() error   { return r.ds.Close() }

// recordQuality clamps quality q to what record i actually stores (grayscale
// records hold fewer scan groups than the dataset maximum).
func (r *pcrReader) recordQuality(i, q int) (int, error) {
	groups, err := r.ds.RecordGroups(i)
	if err != nil {
		return 0, err
	}
	if q > groups {
		q = groups
	}
	return q, nil
}

// recordPrefixLen is the bytes a prefix read of record i at quality q covers.
func (r *pcrReader) recordPrefixLen(i, q int) (int64, error) {
	gg, err := r.recordQuality(i, q)
	if err != nil {
		return 0, err
	}
	return r.ds.RecordPrefixLen(i, gg)
}

func (r *pcrReader) sizeAtQuality(q int) (int64, error) {
	var total int64
	for i := 0; i < r.ds.NumRecords(); i++ {
		n, err := r.recordPrefixLen(i, q)
		if err != nil {
			return 0, err
		}
		total += n
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

// readRecord is the one record read: record i's samples at quality q, still
// encoded, with the read's accounting. With sel nil it is the prefix read,
// through the cache tiers when they are mounted. With a selection mask it
// yields only the samples sel keeps, and the precedence is: with cache tiers
// mounted, the full prefix is read through them (caches are prefix-shaped — a
// sparse read could neither fill nor be served from one) and the selection
// applies afterwards; without them the read is sparse — only the metadata
// section and the selected samples' slices are fetched (gatherSelected) and
// the samples are assembled straight from those bytes, so bytes is what the
// gather moved. Selecting every sample coalesces to the ordinary full prefix
// read.
func (r *pcrReader) readRecord(i, q int, sel []bool) recordRead {
	gg, err := r.recordQuality(i, q)
	if err != nil {
		return recordRead{err: err}
	}
	rr := recordRead{quality: q}
	if rr.bytes, err = r.ds.RecordPrefixLen(i, gg); err != nil {
		return recordRead{err: err}
	}
	var (
		meta    *core.RecordMeta
		prefix  []byte   // of a whole-prefix read
		streams [][]byte // of a sparse read: the selected samples, assembled
	)
	if sel == nil || r.cache != nil || r.disk != nil {
		if r.cache == nil {
			prefix, meta, err = r.ds.ReadRecordPrefix(i, gg)
		} else if prefix, err = r.cache.Get(i, rr.bytes); err == nil {
			meta, err = r.ds.ParseRecordPrefix(i, prefix)
		}
	} else {
		var body []byte
		if body, err = r.gatherSelected(i, gg, sel); err == nil {
			rr.bytes = int64(len(body))
			meta, streams, err = core.AssembleSamples(body, gg, sel)
		}
	}
	if err != nil {
		return recordRead{err: err}
	}
	rr.samples = make([]Sample, 0, len(meta.Samples))
	for si := range meta.Samples {
		if sel != nil && !sel[si] {
			continue
		}
		sm := &meta.Samples[si]
		var stream []byte
		if streams != nil {
			stream = streams[si]
		} else if stream, err = meta.SampleJPEG(prefix, si, gg); err != nil {
			return recordRead{err: err}
		}
		rr.samples = append(rr.samples, Sample{ID: sm.ID, Label: sm.Label, JPEG: stream})
	}
	return rr
}

// selection evaluates pred over record i's side index without touching the
// record file: the mask of the samples it selects and how many they are.
func (r *pcrReader) selection(i int, pred Predicate) (sel []bool, nsel int, err error) {
	ids, labels, err := r.ds.SampleIndex(i)
	sel, nsel = matchSelection(pred, ids, labels)
	return sel, nsel, err
}

// gatherSelected fetches the bytes a sparse read of record i needs — those of
// SampleRanges(gg, sel), concatenated in order — as one pushdown request
// when the backend takes one (remote) or as a read per range (local).
func (r *pcrReader) gatherSelected(i, gg int, sel []bool) ([]byte, error) {
	if sr, ok := r.ds.Backend().(core.SampleReader); ok {
		name, err := r.ds.RecordName(i)
		if err != nil {
			return nil, err
		}
		return sr.ReadSamples(name, gg, sel)
	}
	ranges, err := r.ds.SampleRanges(i, gg, sel)
	if err != nil {
		return nil, err
	}
	body := make([]byte, 0, core.RangesTotal(ranges))
	for _, rg := range ranges {
		part, err := r.ds.ReadRecordRange(i, rg.Offset, rg.Length)
		if err != nil {
			return nil, err
		}
		body = append(body, part...)
	}
	return body, nil
}

// planFilter computes the filtered-scan cost estimate behind
// Dataset.PlanFilter from the side index alone.
func (r *pcrReader) planFilter(pred Predicate, qq int) (FilterPlan, error) {
	var plan FilterPlan
	plan.Records = r.ds.NumRecords()
	for i := 0; i < r.ds.NumRecords(); i++ {
		gg, err := r.recordQuality(i, qq)
		if err != nil {
			return FilterPlan{}, err
		}
		full, err := r.ds.RecordPrefixLen(i, gg)
		if err != nil {
			return FilterPlan{}, err
		}
		plan.FullBytes += full
		sel, nsel, err := r.selection(i, pred)
		if err != nil {
			return FilterPlan{}, err
		}
		plan.Total += len(sel)
		if nsel == 0 {
			plan.RecordsSkipped++
			continue
		}
		plan.Selected += nsel
		ranges, err := r.ds.SampleRanges(i, gg, sel)
		if err != nil {
			return FilterPlan{}, err
		}
		plan.Bytes += core.RangesTotal(ranges)
	}
	return plan, nil
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
