package pcr

import (
	"fmt"
	"image"

	"repro/internal/cache"
	"repro/internal/core"
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

// newPCRReader refuses an empty shard and builds the read path over a
// dataset opened against any Backend — the shared tail of Open (local disk)
// and OpenRemote (HTTP prefix server): the memory tier (WithCacheBytes)
// over the persistent disk tier (WithDiskCache) over the storage backend.
func newPCRReader(ds *core.Dataset, cfg *config) (*pcrReader, error) {
	if cfg.shards > 1 && ds.NumRecords() == 0 {
		return nil, fmt.Errorf("pcr: shard %d of %d holds no records", cfg.shard, cfg.shards)
	}
	tiers, err := cache.NewStack(ds, cfg.cacheBytes, cfg.diskCacheDir, cfg.diskCacheBytes, nil)
	if err != nil {
		return nil, err
	}
	return &pcrReader{ds: ds, records: ds.Index().Records, tiers: tiers, metas: make(cache.FreeList[*core.RecordMeta], readAhead)}, nil
}

type pcrWriter struct{ w *core.DatasetWriter }

func (w *pcrWriter) append(s Sample) error {
	return w.w.Append(core.Sample{ID: s.ID, Label: s.Label, JPEG: s.JPEG})
}

func (w *pcrWriter) close() error { return w.w.Close() }

// pcrReader reads records through the dataset's tier stack.
type pcrReader struct {
	ds *core.Dataset
	// records is the dataset's index, which every read is planned from
	// (recordPlan).
	records []core.RecordInfo
	tiers   *cache.Stack
	// metas is the parsed records that reads are done with, for the next
	// read to parse into: as many as one pipeline reads at once.
	metas cache.FreeList[*core.RecordMeta]
}

func (r *pcrReader) numImages() int { return r.ds.NumImages() }
func (r *pcrReader) qualities() int { return r.ds.NumGroups }

func (r *pcrReader) close() error { return r.tiers.Close() }

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

// readRecord is the fetch stage's one record read: it carries out the read
// recordPlan decided and priced, and delivers the samples it selects, still
// encoded, skipping those inside a resume prefix. A whole-prefix read
// reassembles the delivered samples from the prefix (SampleJPEGs); a sparse
// read fetches only the metadata section and the selected samples' slices
// (Stack.Gather) and assembles them straight from those bytes
// (AssembleSamples). Either way one parse call, which keeps every sample's
// entry, goes into a RecordMeta an earlier read is done with, none inside
// the resume prefix is spliced, and the delivered JPEGs share bounded
// buffers of their own — exactly sized and the caller's, or, for a lent
// read, taken from pl.lend and listed in rr.lent — so the prefix or the
// gathered body goes back to the stack once the samples are spliced out. A
// read or parse that panics on hostile record bytes fails this read, not
// the process, and its buffer still goes back.
func (r *pcrReader) readRecord(pl *readPlan) (rr recordRead) {
	defer func() {
		if v := recover(); v != nil {
			rr = recordRead{err: fmt.Errorf("pcr: record read panicked: %v", v)}
		}
	}()
	meta := r.metas.Take()
	if meta == nil {
		meta = new(core.RecordMeta)
	}
	rr = recordRead{quality: pl.quality, bytes: pl.bytes, samples: make([]Sample, 0, pl.delivers)}
	deliver := func(i int, stream []byte) {
		sm := &meta.Samples[i]
		rr.samples = append(rr.samples, Sample{ID: sm.ID, Label: sm.Label, JPEG: stream})
		if len(rr.lent) > 0 {
			// The stream went into the buffer taken last.
			rr.lent[len(rr.lent)-1].last = len(rr.samples) - 1
		}
	}
	var bufs core.StreamBuffers
	if pl.lend != nil {
		bufs = func(n int64) []byte {
			b := takeBuffer(pl.lend, n)
			rr.lent = append(rr.lent, lentBuffer{buf: b})
			return b
		}
	}
	var buf []byte
	var err error
	if pl.sparse {
		buf, err = r.tiers.Gather(pl.rec, pl.group, pl.sel, nil)
	} else {
		buf, err = r.tiers.Read(pl.rec, 0, pl.bytes)
	}
	if err == nil {
		defer r.tiers.Release(buf)
		if err = r.ds.ParseRecordPrefix(meta, pl.rec, buf); err == nil {
			if pl.sparse {
				err = meta.AssembleSamples(buf, pl.group, pl.sel, pl.from, bufs, deliver)
			} else {
				err = meta.SampleJPEGs(buf, pl.group, pl.sel, pl.from, bufs, deliver)
			}
		}
	}
	meta.Reset()
	r.metas.Give(meta)
	if err != nil {
		return recordRead{err: err}
	}
	return rr
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
