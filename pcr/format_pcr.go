package pcr

import (
	"cmp"
	"fmt"
	"image"
	"slices"
	"sync"

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
	return &pcrReader{ds: ds, records: ds.Index().Records, tiers: tiers}, nil
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
	// leases is the record leases given back, for the next record read to
	// take, in order of what they held. It keeps every one, so it holds no
	// more than were ever out at once. mu guards it; leased, when set, sees
	// each take and give (export_test.go).
	mu     sync.Mutex
	leases []*recordLease
	leased func(l *recordLease, give bool)
}

// recordLease is what one record read passes through: the RecordMeta it
// parses into, the samples slice it delivers into and the buffers it
// splices the samples' streams into. A read takes one (take) and hands it
// on with its samples; it comes back whole, once, when their holder is
// done with them (give), and keeps its room for the next read.
type recordLease struct {
	meta    core.RecordMeta
	samples []Sample
	// streams is the stream buffers, in the order the splice asks for them,
	// of which the read at hand has used the first used.
	streams [][]byte
	used    int
	// held is the most bytes a read whose streams the buffers hold has
	// moved: a read of no more likely fits them.
	held int64
}

// stream is a read's core.StreamBuffers: the lease's next buffer if it has
// room for n bytes, else a new one in its place — of exactly n where it had
// none, so that a caller who keeps the streams (give, kept) keeps no spare
// room, and of twice n where its buffer was too short, so that the buffers
// of a lease given back whole settle rather than regrow read after read.
func (l *recordLease) stream(n int64) []byte {
	if l.used == len(l.streams) {
		l.streams = append(l.streams, nil)
	}
	b := l.streams[l.used]
	if int64(cap(b)) < n {
		room := n
		if b != nil {
			room *= 2
		}
		b = make([]byte, 0, room)
		l.streams[l.used] = b
	}
	l.used++
	return b[:0]
}

// take hands a read of n bytes a lease: of those given back, the one whose
// buffers held the smallest read no smaller, else the largest, so that over
// reads of mixed sizes the buffers settle rather than regrow; else a new
// one.
func (r *pcrReader) take(n int64) *recordLease {
	r.mu.Lock()
	var l *recordLease
	if k := len(r.leases); k == 0 {
		l = new(recordLease)
	} else {
		i, _ := slices.BinarySearchFunc(r.leases, n, byHeld)
		i = min(i, k-1)
		l = r.leases[i]
		r.leases = slices.Delete(r.leases, i, i+1)
	}
	r.mu.Unlock()
	l.held = max(l.held, n)
	if r.leased != nil {
		r.leased(l, false)
	}
	return l
}

// byHeld orders leases by the bytes their buffers held.
func byHeld(l *recordLease, n int64) int { return cmp.Compare(l.held, n) }

// give takes a lease back, its samples cleared so that it holds on to no
// frame or stream but its own buffers. With kept, the holder keeps the
// streams its read delivered, so the lease lets go of their buffers first;
// otherwise it comes back whole.
func (r *pcrReader) give(l *recordLease, kept bool) {
	if kept {
		clear(l.streams[:l.used])
		l.held = 0
	}
	if r.leased != nil {
		r.leased(l, true)
	}
	clear(l.samples)
	l.samples, l.used = l.samples[:0], 0
	r.mu.Lock()
	i, _ := slices.BinarySearchFunc(r.leases, l.held, byHeld)
	r.leases = slices.Insert(r.leases, i, l)
	r.mu.Unlock()
}

// readOwned is a record read whose caller keeps what it delivers: the
// samples, copied into a slice of their own, and their streams. The lease
// goes back at once.
func (r *pcrReader) readOwned(pl *readPlan) ([]Sample, error) {
	rr := r.readRecord(pl)
	if rr.err != nil {
		return nil, rr.err
	}
	samples := make([]Sample, len(rr.samples))
	copy(samples, rr.samples)
	r.give(rr.lease, true)
	return samples, nil
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
// recordPlan decided and priced, and delivers the samples it selects past
// the resume prefix, still encoded, into a lease it takes. A whole-prefix
// read reassembles them from the prefix (SampleJPEGs); a sparse read
// fetches only the metadata section and the selected samples' slices
// (Stack.Gather) and assembles them from those bytes (AssembleSamples).
// Either way the record is parsed once, into the lease's RecordMeta, the
// streams go into the lease's buffers, and the prefix or body goes back to
// the stack once they are spliced. A read that fails, a panic on hostile
// record bytes included, gives its lease back and delivers only the error.
func (r *pcrReader) readRecord(pl *readPlan) (rr recordRead) {
	l := r.take(pl.bytes)
	defer func() {
		l.meta.Reset()
		if v := recover(); v != nil {
			rr.err = fmt.Errorf("pcr: record read panicked: %v", v)
		}
		if rr.err != nil {
			r.give(l, false)
			rr = recordRead{err: rr.err}
		}
	}()
	if cap(l.samples) < pl.delivers {
		// Room for every sample of the record, so that the slice fits any
		// later read of a record as large.
		l.samples = make([]Sample, 0, r.records[pl.rec].Samples)
	}
	deliver := func(i int, stream []byte) {
		sm := &l.meta.Samples[i]
		l.samples = append(l.samples, Sample{ID: sm.ID, Label: sm.Label, JPEG: stream})
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
		if err = r.ds.ParseRecordPrefix(&l.meta, pl.rec, buf); err == nil {
			if pl.sparse {
				err = l.meta.AssembleSamples(buf, pl.group, pl.sel, pl.from, l.stream, deliver)
			} else {
				err = l.meta.SampleJPEGs(buf, pl.group, pl.sel, pl.from, l.stream, deliver)
			}
		}
	}
	return recordRead{samples: l.samples, lease: l, bytes: pl.bytes, quality: pl.quality, err: err}
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
