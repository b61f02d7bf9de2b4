package pcr

import (
	"fmt"
	"sync/atomic"

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
	r, err := newPCRReader(ds, cfg)
	if err != nil {
		ds.Close()
		return nil, err
	}
	return r, nil
}

// newPCRReader wires the optional cache tiers over a dataset opened
// against any Backend — the shared tail of Open (local disk) and
// OpenRemote (HTTP prefix server). The persistent disk cache
// (WithDiskCache) decorates the storage backend itself, so it sits under
// the in-memory LRU (WithCacheBytes): a read misses memory, then disk,
// then goes upstream — and each tier fills with exactly the delta bytes.
func newPCRReader(ds *core.Dataset, cfg *config) (*pcrReader, error) {
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

func (r *pcrReader) sizeAtQuality(q int) (int64, error) {
	var total int64
	for i := 0; i < r.ds.NumRecords(); i++ {
		gg, err := r.recordQuality(i, q)
		if err != nil {
			return 0, err
		}
		n, err := r.ds.RecordPrefixLen(i, gg)
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

// readPrefix returns the prefix bytes and parsed metadata of record i at
// record-clamped quality gg.
func (r *pcrReader) readPrefix(i, gg int) ([]byte, *core.RecordMeta, error) {
	if r.cache == nil {
		return r.ds.ReadRecordPrefix(i, gg)
	}
	need, err := r.ds.RecordPrefixLen(i, gg)
	if err != nil {
		return nil, nil, err
	}
	prefix, err := r.cache.Get(i, need)
	if err != nil {
		return nil, nil, err
	}
	meta, err := r.ds.ParseRecordPrefix(i, prefix)
	if err != nil {
		return nil, nil, err
	}
	return prefix, meta, nil
}

// readRecord materializes record i's samples (encoded only) at quality q.
func (r *pcrReader) readRecord(i, q int) ([]Sample, error) {
	gg, err := r.recordQuality(i, q)
	if err != nil {
		return nil, err
	}
	prefix, meta, err := r.readPrefix(i, gg)
	if err != nil {
		return nil, err
	}
	out := make([]Sample, 0, len(meta.Samples))
	for si := range meta.Samples {
		stream, err := meta.SampleJPEG(prefix, si, gg)
		if err != nil {
			return nil, err
		}
		out = append(out, Sample{
			ID:    meta.Samples[si].ID,
			Label: meta.Samples[si].Label,
			JPEG:  stream,
		})
	}
	return out, nil
}

// selection evaluates pred over record i's side index without touching the
// record file: the mask of the samples it selects and how many they are.
func (r *pcrReader) selection(i int, pred Predicate) (sel []bool, nsel int, err error) {
	ids, labels, err := r.ds.SampleIndex(i)
	sel, nsel = matchSelection(pred, ids, labels)
	return sel, nsel, err
}

// readRecordFiltered materializes only the samples of record i that the
// side-index selection mask sel keeps, at quality q. It returns the selected
// encoded samples in storage order plus exact byte accounting: bytesRead is
// what this read fetched, bytesAvoided is what a full prefix read would have
// fetched on top.
//
// Read-path precedence: with cache tiers mounted, the full prefix is read
// through them (caches are prefix-shaped — a sparse read could neither fill
// nor be served from one) and the selection applies afterwards. Without
// caches the read is sparse: only the metadata section and the selected
// samples' slices are fetched (gatherSelected) and the samples are assembled
// straight from those bytes. Selecting every sample coalesces to the
// ordinary full prefix read.
func (r *pcrReader) readRecordFiltered(i, q int, sel []bool) (samples []Sample, bytesRead, bytesAvoided int64, err error) {
	gg, err := r.recordQuality(i, q)
	if err != nil {
		return nil, 0, 0, err
	}
	full, err := r.ds.RecordPrefixLen(i, gg)
	if err != nil {
		return nil, 0, 0, err
	}
	var (
		meta    *core.RecordMeta
		prefix  []byte   // of a whole-prefix read
		streams [][]byte // of a sparse read: the selected samples, assembled
	)
	bytesRead = full
	if r.cache != nil || r.disk != nil {
		prefix, meta, err = r.readPrefix(i, gg)
	} else {
		var body []byte
		if body, err = r.gatherSelected(i, gg, sel); err == nil {
			bytesRead = int64(len(body))
			meta, streams, err = core.AssembleSamples(body, gg, sel)
		}
	}
	if err != nil {
		return nil, 0, 0, err
	}
	out := make([]Sample, 0, len(meta.Samples))
	for si := range meta.Samples {
		if !sel[si] {
			continue
		}
		sm := &meta.Samples[si]
		var stream []byte
		if streams != nil {
			stream = streams[si]
		} else if stream, err = meta.SampleJPEG(prefix, si, gg); err != nil {
			return nil, 0, 0, err
		}
		out = append(out, Sample{ID: sm.ID, Label: sm.Label, JPEG: stream})
	}
	return out, bytesRead, full - bytesRead, nil
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

// planFiltered is one record's step of a filtered read at quality q, split
// where the pipeline splits it: the selection, and the skip of a record it
// leaves empty with that skip's accounting, come from the side index here;
// the returned read (nil for a skipped record) fetches the selected samples
// (see readRecordFiltered) and accounts for them when it runs. nsel is how
// many samples the record will deliver — the unit a Loader's resume position
// counts in; a caller that drops the read has accounted for nothing.
func (r *pcrReader) planFiltered(i, q int, pred Predicate, stats *FilterStats) (nsel int, read func() recordRead, err error) {
	sel, nsel, err := r.selection(i, pred)
	if err != nil {
		return 0, nil, err
	}
	if nsel == 0 {
		if stats != nil {
			full, err := r.recordPrefixLen(i, q)
			if err != nil {
				return 0, nil, err
			}
			stats.addSamples(0, int64(len(sel)))
			stats.addBytes(0, full)
			atomic.AddInt64(&stats.RecordsSkipped, 1)
		}
		return 0, nil, nil
	}
	return nsel, func() recordRead {
		samples, bytesRead, bytesAvoided, err := r.readRecordFiltered(i, q, sel)
		if err != nil {
			return recordRead{err: err}
		}
		if stats != nil {
			stats.addSamples(int64(len(samples)), int64(len(sel)-len(samples)))
			stats.addBytes(bytesRead, bytesAvoided)
		}
		return recordRead{samples: samples, bytes: bytesRead, quality: q}
	}, nil
}

// planScan is the plan stage of a storage-order scan, decoded or not: every
// record in turn, minus those the filter leaves empty.
func (r *pcrReader) planScan(q int, sc *scanConfig) planFn {
	next := 0
	return func() (func() recordRead, bool) {
		for next < r.ds.NumRecords() {
			i := next
			next++
			if sc.pred == nil {
				return func() recordRead {
					samples, err := r.readRecord(i, q)
					return recordRead{samples: samples, err: err}
				}, true
			}
			_, read, err := r.planFiltered(i, q, sc.pred, sc.stats)
			if err != nil {
				return failedRead(err), true
			}
			if read != nil {
				return read, true
			}
		}
		return nil, false
	}
}

// Record-level accessors behind Dataset's PCR-only methods.

func (r *pcrReader) numRecords() int { return r.ds.NumRecords() }

func (r *pcrReader) recordImages(i int) (int, error) { return r.ds.RecordSamples(i) }

func (r *pcrReader) recordPrefixLen(i, q int) (int64, error) {
	gg, err := r.recordQuality(i, q)
	if err != nil {
		return 0, err
	}
	return r.ds.RecordPrefixLen(i, gg)
}

func (r *pcrReader) cacheStats() (cache.Stats, bool) {
	if r.cache == nil {
		return cache.Stats{}, false
	}
	return r.cache.Stats(), true
}

func (r *pcrReader) diskCacheStats() (diskcache.Stats, bool) {
	if r.disk == nil {
		return diskcache.Stats{}, false
	}
	return r.disk.Stats(), true
}

// decodeJPEG decodes s.JPEG into s.Image; the pipeline's decode workers are
// its one caller.
func decodeJPEG(s *Sample) error {
	img, err := jpegc.Decode(s.JPEG)
	if err != nil {
		return fmt.Errorf("pcr: decoding sample %d: %w", s.ID, err)
	}
	s.Image = img
	return nil
}
