package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/wire"
)

// Index is the record index of a PCR dataset: everything a reader needs to
// plan prefix reads without touching a record file. Its one encoding is the
// kvstore metadata database's dataset header and record entries (the
// paper's SQLite/RocksDB role, §3.2), which GET /index ships as one
// document (EncodeIndex) — what lets a network client compute prefix
// lengths, quality budgets (SizeAtQuality), and delta upgrades entirely
// client-side.
type Index struct {
	// NumGroups is the dataset-wide maximum scan-group count (the number
	// of quality levels).
	NumGroups int
	// NumImages is the total stored image count.
	NumImages int
	// Records lists every record in storage order.
	Records []RecordInfo
}

// RecordInfo is one record's index entry.
type RecordInfo struct {
	// Name is the record's object name within its Backend.
	Name string
	// Samples is the record's image count.
	Samples int
	// Prefixes[g] is the byte length of the record prefix through scan
	// group g; Prefixes[0] covers metadata only and the last element is
	// the whole record file.
	Prefixes []int64

	// Sample-offset side index. SampleIDs and SampleLabels list the
	// per-sample identity in storage order; SampleGroupLens is sample-major
	// flattened, SampleGroupLens[i*numGroups+(g-1)] being sample i's byte
	// length within scan group g. Together with Prefixes these let any
	// reader compute the exact byte ranges of a sample subset at any quality
	// (SampleRanges) without touching the record file.
	SampleIDs       []int64
	SampleLabels    []int64
	SampleGroupLens []int64
}

// ClampGroup is the scan group a read of the record at group g serves: g,
// or the record's last group when it stores fewer than g — a record may
// store fewer scan groups than the dataset (a grayscale image has fewer
// scans). Every reader of a record, local or remote, clamps through it.
func (r *RecordInfo) ClampGroup(g int) int { return min(g, len(r.Prefixes)-1) }

// encodeHeader starts the dataset header: record, quality-level and image
// counts as fields 1–3.
func encodeHeader(records, groups, images int) *wire.Encoder {
	e := wire.NewEncoder(nil)
	e.Uint64(1, uint64(records))
	e.Uint64(2, uint64(groups))
	e.Uint64(3, uint64(images))
	return e
}

// encodeRecordEntry is the one encoding of a record entry, over buf's
// storage: name (field 1), sample count (2), and as packed varints, each
// negative one as its two's complement, the prefix lengths (3) and side
// index — sample IDs (4), labels (5) and group lengths (6).
func encodeRecordEntry(buf []byte, re *RecordInfo) []byte {
	e := wire.NewEncoder(buf)
	e.String(1, re.Name)
	e.Uint64(2, uint64(re.Samples))
	for f, vs := range [][]int64{re.Prefixes, re.SampleIDs, re.SampleLabels, re.SampleGroupLens} {
		wire.Packed(e, 3+f, vs)
	}
	return e.Encode()
}

// parseRecordEntry is the one parser of a record entry (encodeRecordEntry):
// a malformed one is ErrCorrupt. decodeIndex validates what it returns.
func parseRecordEntry(raw []byte) (RecordInfo, error) {
	var re RecordInfo
	d := wire.NewDecoder(raw)
	for !d.Done() {
		field, wtype, err := d.Next()
		if err == nil {
			switch field {
			case 1:
				re.Name, err = d.String()
			case 2:
				var v uint64
				v, err = d.Uint64()
				re.Samples = int(v)
			case 3, 4, 5, 6:
				dst := [...]*[]int64{&re.Prefixes, &re.SampleIDs, &re.SampleLabels, &re.SampleGroupLens}[field-3]
				*dst, err = wire.ReadPacked(d, *dst)
			default:
				err = d.Skip(wtype)
			}
		}
		if err != nil {
			return re, fmt.Errorf("%w: record entry: %w", ErrCorrupt, err)
		}
	}
	return re, nil
}

// EncodeIndex serializes the index as the /index document: the dataset
// header with every record entry appended as field 4.
func EncodeIndex(ix *Index) ([]byte, error) {
	e := encodeHeader(len(ix.Records), ix.NumGroups, ix.NumImages)
	var entry []byte
	for i := range ix.Records {
		entry = encodeRecordEntry(entry, &ix.Records[i])
		e.Bytes(4, entry)
	}
	return e.Encode(), nil
}

// ParseIndex deserializes an /index document and validates its shape;
// malformed input is reported as ErrCorrupt.
func ParseIndex(data []byte) (*Index, error) { return decodeIndex(data, nil) }

// decodeIndex is the one parser of an index: a dataset header whose record
// entries are its field 4 (an /index document) or stored's record/%05d
// values (the metadata database), each parsed by parseRecordEntry, their
// number held to the header's, the whole validated; it refuses as ErrCorrupt.
func decodeIndex(header []byte, stored map[string][]byte) (*Index, error) {
	var counts [4]uint64 // fields 1–3: records, quality levels, images
	var entries [][]byte
	d := wire.NewDecoder(header)
	for !d.Done() {
		field, wtype, err := d.Next()
		if err == nil {
			switch field {
			case 1, 2, 3:
				counts[field], err = d.Uint64()
			case 4:
				var e []byte
				e, err = d.Bytes()
				entries = append(entries, e)
			default:
				err = d.Skip(wtype)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("core: %w: index header: %w", ErrCorrupt, err)
		}
	}
	for i := len(entries); uint64(i) < counts[1] && stored[recordKey(i)] != nil; i++ {
		entries = append(entries, stored[recordKey(i)])
	}
	if counts[1] != uint64(len(entries)) {
		return nil, fmt.Errorf("core: %w: index header counts %d records, holds %d", ErrCorrupt, counts[1], len(entries))
	}
	ix := &Index{NumGroups: int(counts[2]), NumImages: int(counts[3]), Records: make([]RecordInfo, len(entries))}
	for i, e := range entries {
		var err error
		if ix.Records[i], err = parseRecordEntry(e); err != nil {
			return nil, fmt.Errorf("core: index record %d: %w", i, err)
		}
	}
	if err := ix.validate(); err != nil {
		return nil, err
	}
	return ix, nil
}

// validate refuses, as ErrCorrupt, an index a read plan cannot trust: a
// malformed record entry, or counts its records contradict.
func (ix *Index) validate() error {
	for i := range ix.Records {
		if err := ix.Records[i].validate(); err != nil {
			return fmt.Errorf("core: index record %d: %w", i, err)
		}
	}
	return checkCounts(ix.NumImages, ix.NumGroups, ix.Records)
}

// checkCounts holds an index's counts to its (validated) records: the image
// count is the sum of their samples, and the quality count covers every
// record's scan groups. It has no upper bound on numGroups: a shard view
// carries the whole dataset's, which its own records may not reach.
func checkCounts(numImages, numGroups int, records []RecordInfo) error {
	sum := 0
	for i := range records {
		sum += records[i].Samples
		if ng := len(records[i].Prefixes) - 1; numGroups < ng {
			return fmt.Errorf("core: %w: index counts %d quality levels, record %d stores %d", ErrCorrupt, numGroups, i, ng)
		}
	}
	if numGroups < 0 {
		return fmt.Errorf("core: %w: index counts %d quality levels", ErrCorrupt, numGroups)
	}
	if numImages != sum {
		return fmt.Errorf("core: %w: index counts %d images, its records hold %d", ErrCorrupt, numImages, sum)
	}
	return nil
}

// Shard is stride shard i of n of the index (0 <= i < n): records r with
// r % n == i, in storage order and renumbered from 0 — disjoint across the
// n shards, covering the index, and balanced to within one record. The
// view counts its own images and keeps the dataset's quality count. It is
// the one sharding of a dataset: a served /index?shard=i&nshards=n and a
// local shard opened through pcr are both this.
func (ix *Index) Shard(i, n int) *Index {
	sub := &Index{NumGroups: ix.NumGroups}
	for r := i; r < len(ix.Records); r += n {
		sub.Records = append(sub.Records, ix.Records[r])
		sub.NumImages += ix.Records[r].Samples
	}
	return sub
}

// IndexFingerprint returns a stable content fingerprint of the index, the
// SHA-256 of its /index document: the dataset's generation for cache
// coherence and the server's /index ETag. Datasets are immutable once
// written, so two readers that fingerprint the same index are reading the
// same bytes, and a persistent cache keyed by the fingerprint can never
// serve bytes from a different dataset build.
func IndexFingerprint(ix *Index) (string, error) {
	doc, err := EncodeIndex(ix)
	if err != nil {
		return "", err
	}
	return DocFingerprint(doc), nil
}

// DocFingerprint is IndexFingerprint of the index whose /index document
// (EncodeIndex) is doc, for a holder of the document that need not encode
// it again.
func DocFingerprint(doc []byte) string {
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:16])
}

// Index returns the dataset's record index. The Index and its Records
// slice are freshly built on each call; the per-record slices alias the
// dataset's internal state and must not be mutated.
func (ds *Dataset) Index() *Index {
	return &Index{
		NumGroups: ds.NumGroups,
		NumImages: ds.numImg,
		Records:   append([]RecordInfo(nil), ds.records...),
	}
}

// OpenDatasetIndex constructs a Dataset over an explicit index and Backend —
// the entry point for remote readers, which fetch the index from a prefix
// server and read record ranges through the network Backend. The returned
// Dataset owns the Backend and closes it with Close.
func OpenDatasetIndex(ix *Index, b Backend) (*Dataset, error) {
	if ix == nil {
		return nil, fmt.Errorf("core: nil index")
	}
	if b == nil {
		return nil, fmt.Errorf("core: nil backend")
	}
	if err := ix.validate(); err != nil {
		return nil, err
	}
	return &Dataset{
		backend:   b,
		NumGroups: ix.NumGroups,
		numImg:    ix.NumImages,
		records:   append([]RecordInfo(nil), ix.Records...),
	}, nil
}
