package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/kvstore"
)

// mapKVErr lifts kvstore's private error namespace onto the facade's:
// a corrupt metadata database is structural damage to the dataset, so
// callers' errors.Is(err, ErrCorrupt) dispatch must see it as such.
// kvstore itself keeps its own sentinel (it predates — and must not
// import — this package); this boundary is where the two meet.
func mapKVErr(err error) error {
	if errors.Is(err, kvstore.ErrCorrupt) {
		return fmt.Errorf("core: %w: metadata database: %w", ErrCorrupt, err)
	}
	return err
}

// DatasetOptions configure dataset creation.
type DatasetOptions struct {
	// ImagesPerRecord is the record batching factor (the paper uses ~1024
	// images per record at ImageNet scale; pick smaller for small datasets).
	ImagesPerRecord int
	// ScanGroups, when positive, coalesces progressive scans into that many
	// scan groups per record (see RecordOptions.ScanGroups).
	ScanGroups int
}

func (o *DatasetOptions) imagesPerRecord() int {
	if o == nil || o.ImagesPerRecord <= 0 {
		return 64
	}
	return o.ImagesPerRecord
}

// DatasetWriter encodes a stream of samples into a PCR dataset directory:
// numbered .pcr record files plus a kvstore metadata database holding the
// record index (the paper's SQLite/RocksDB role).
type DatasetWriter struct {
	dir     string
	opts    DatasetOptions
	db      *kvstore.Store
	pending []Sample
	nrec    int
	ngroups int
	nimg    int
	closed  bool
}

// CreateDataset initializes a new PCR dataset at dir.
func CreateDataset(dir string, opts *DatasetOptions) (*DatasetWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	db, err := kvstore.Open(filepath.Join(dir, "meta"), nil)
	if err != nil {
		return nil, mapKVErr(err)
	}
	var o DatasetOptions
	if opts != nil {
		o = *opts
	}
	return &DatasetWriter{dir: dir, opts: o, db: db}, nil
}

// Append adds one sample, flushing a record when the batch fills.
func (w *DatasetWriter) Append(s Sample) error {
	if w.closed {
		return fmt.Errorf("core: writer closed")
	}
	w.pending = append(w.pending, s)
	if len(w.pending) >= w.opts.imagesPerRecord() {
		return w.flush()
	}
	return nil
}

func recordName(i int) string { return fmt.Sprintf("record-%05d.pcr", i) }

// recordKey is record i's entry's key in the metadata database.
func recordKey(i int) string { return fmt.Sprintf("record/%05d", i) }

func (w *DatasetWriter) flush() error {
	if len(w.pending) == 0 {
		return nil
	}
	name := recordName(w.nrec)
	path := filepath.Join(w.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	meta, err := WriteRecordOpts(f, w.pending, &RecordOptions{ScanGroups: w.opts.ScanGroups})
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("core: %w", cerr)
	}
	if err != nil {
		// No index entry will name the file: do not leave a partial
		// record beside the whole ones.
		os.Remove(path)
		return err
	}

	// Record index entry: file name, sample count, prefix length per group
	// and the sample-offset side index.
	n := len(meta.Samples)
	re := RecordInfo{Name: name, Samples: n, Prefixes: make([]int64, meta.NumGroups+1),
		SampleIDs: make([]int64, 0, n), SampleLabels: make([]int64, 0, n), SampleGroupLens: make([]int64, 0, n*meta.NumGroups)}
	for g := range re.Prefixes {
		if re.Prefixes[g], err = meta.PrefixLen(g); err != nil {
			return err
		}
	}
	for _, s := range meta.Samples {
		re.SampleIDs = append(re.SampleIDs, s.ID)
		re.SampleLabels = append(re.SampleLabels, s.Label)
		re.SampleGroupLens = append(re.SampleGroupLens, s.GroupLens[:meta.NumGroups]...)
	}
	if err := w.db.Put([]byte(recordKey(w.nrec)), encodeRecordEntry(nil, &re)); err != nil {
		return err
	}

	if meta.NumGroups > w.ngroups {
		w.ngroups = meta.NumGroups
	}
	w.nimg += len(w.pending)
	w.nrec++
	w.pending = w.pending[:0]
	return nil
}

// Close flushes the final partial record and the dataset-level metadata.
func (w *DatasetWriter) Close() error {
	if w.closed {
		return nil
	}
	if err := w.flush(); err != nil {
		return err
	}
	if err := w.db.Put([]byte("dataset"), encodeHeader(w.nrec, w.ngroups, w.nimg).Encode()); err != nil {
		return err
	}
	w.closed = true
	return w.db.Close()
}

// Dataset is an opened PCR dataset: a record index plus a Backend the
// record bytes are read through. OpenDataset serves a local directory
// (index from the kvstore metadata database, bytes from DirBackend);
// OpenDatasetIndex serves any Backend — notably the HTTP client of the
// serving layer — from an explicit index.
type Dataset struct {
	backend   Backend
	NumGroups int
	numImg    int
	records   []RecordInfo
}

// OpenDataset opens a PCR dataset directory created by DatasetWriter. It
// only reads: the metadata database is loaded whole and not held open, and
// nothing under dir is written or created. A dir without dataset metadata —
// none at all, or a writer's that was never closed — is an error satisfying
// errors.Is(err, fs.ErrNotExist).
func OpenDataset(dir string) (*Dataset, error) {
	kv, err := kvstore.Load(filepath.Join(dir, "meta"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("core: dataset metadata missing: %w", err)
	}
	if err != nil {
		return nil, mapKVErr(err)
	}
	raw, ok := kv["dataset"]
	if !ok {
		return nil, fmt.Errorf("core: dataset metadata missing (the dataset writer was not closed): %w", fs.ErrNotExist)
	}
	ix, err := decodeIndex(raw, kv)
	if err != nil {
		return nil, err
	}
	return OpenDatasetIndex(ix, NewDirBackend(dir))
}

// Close releases the storage backend.
func (ds *Dataset) Close() error { return ds.backend.Close() }

// Backend returns the storage backend record bytes are read through.
func (ds *Dataset) Backend() Backend { return ds.backend }

// SetBackend replaces the dataset's storage backend — the decoration point
// for layered backends like the persistent prefix cache
// (internal/diskcache), which wrap the original backend and must be
// installed before reads begin. The dataset owns the new backend and closes
// it with Close; the previous backend is the caller's to close (a decorator
// that wraps it typically adopts that responsibility).
func (ds *Dataset) SetBackend(b Backend) { ds.backend = b }

// NumRecords returns the record count.
func (ds *Dataset) NumRecords() int { return len(ds.records) }

// NumImages returns the total image count.
func (ds *Dataset) NumImages() int { return ds.numImg }

// RecordName returns the Backend object name of record i.
func (ds *Dataset) RecordName(i int) (string, error) {
	if i < 0 || i >= len(ds.records) {
		return "", fmt.Errorf("core: record %d out of range", i)
	}
	return ds.records[i].Name, nil
}

// ReadRecordRange reads [offset, offset+length) of record i through the
// dataset's Backend — the primitive under both the prefix read path and the
// cache's delta upgrades (§5): a miss is ReadRecordRange(i, 0, prefixLen)
// and an upgrade is ReadRecordRange(i, cachedLen, delta).
func (ds *Dataset) ReadRecordRange(i int, offset, length int64) ([]byte, error) {
	return ds.ReadRecordRangeInto(nil, i, offset, length)
}

// ReadRecordRangeInto is ReadRecordRange into a buffer the caller lends,
// whatever the Backend (see ReadRangeInto).
func (ds *Dataset) ReadRecordRangeInto(dst []byte, i int, offset, length int64) ([]byte, error) {
	name, err := ds.RecordName(i)
	if err != nil {
		return nil, err
	}
	return ReadRangeInto(ds.backend, dst, name, offset, length)
}

// RecordPrefixLen returns the bytes needed to read record i at scan group g
// — the quantity the paper's bandwidth model is built on — without touching
// the record file (it comes from the metadata DB).
func (ds *Dataset) RecordPrefixLen(i, g int) (int64, error) {
	if i < 0 || i >= len(ds.records) {
		return 0, fmt.Errorf("core: record %d out of range", i)
	}
	re := &ds.records[i]
	if g < 0 || g >= len(re.Prefixes) {
		return 0, fmt.Errorf("core: scan group %d out of range [0,%d]", g, len(re.Prefixes)-1)
	}
	return re.Prefixes[g], nil
}

// ParseRecordPrefix parses into m, whatever m held, the metadata section
// at the start of record i's bytes, however they were read — a prefix, or a
// gathered body — with an entry for every sample, which SampleJPEGs and
// AssembleSamples both splice by. A reader that parses every record it
// reads into one RecordMeta allocates nothing for the parse once m has the
// room of the records' shape. It refuses as ErrCorrupt a record file that
// disagrees with the index entry every read plan is made from: another
// number of samples, or other prefix lengths. m aliases prefix until it is
// parsed into again or Reset.
func (ds *Dataset) ParseRecordPrefix(m *RecordMeta, i int, prefix []byte) error {
	if i < 0 || i >= len(ds.records) {
		return fmt.Errorf("core: record %d out of range", i)
	}
	return ds.records[i].parse(m, i, prefix)
}

// parse is ParseRecordPrefix of record i, whose index entry r is.
func (r *RecordInfo) parse(meta *RecordMeta, i int, prefix []byte) error {
	if err := meta.parse(prefix); err != nil {
		return err
	}
	if n := r.Samples; len(meta.Samples) != n {
		return fmt.Errorf("core: %w: record %d holds %d samples, its index entry %d", ErrCorrupt, i, len(meta.Samples), n)
	}
	if !slices.Equal(meta.prefix, r.Prefixes) {
		return fmt.Errorf("core: %w: record %d's prefix lengths are %v, its index entry's %v", ErrCorrupt, i, meta.prefix, r.Prefixes)
	}
	return nil
}
