package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Index is the serializable record index of a PCR dataset: everything a
// reader needs to plan prefix reads without touching a record file. Locally
// it lives in the kvstore metadata database (the paper's SQLite/RocksDB
// role, §3.2); the serving layer ships it to remote readers as JSON over
// GET /index, which is what lets a network client compute prefix lengths,
// quality budgets (SizeAtQuality), and delta upgrades entirely client-side.
type Index struct {
	// NumGroups is the dataset-wide maximum scan-group count (the number
	// of quality levels).
	NumGroups int `json:"num_groups"`
	// NumImages is the total stored image count.
	NumImages int `json:"num_images"`
	// Records lists every record in storage order.
	Records []RecordInfo `json:"records"`
}

// RecordInfo is one record's index entry.
type RecordInfo struct {
	// Name is the record's object name within its Backend.
	Name string `json:"name"`
	// Samples is the record's image count.
	Samples int `json:"samples"`
	// Prefixes[g] is the byte length of the record prefix through scan
	// group g; Prefixes[0] covers metadata only and the last element is
	// the whole record file.
	Prefixes []int64 `json:"prefixes"`

	// Sample-offset side index. SampleIDs and SampleLabels list the
	// per-sample identity in storage order; SampleGroupLens is sample-major
	// flattened, SampleGroupLens[i*numGroups+(g-1)] being sample i's byte
	// length within scan group g. Together with Prefixes these let any
	// reader compute the exact byte ranges of a sample subset at any quality
	// (SampleRanges) without touching the record file. (omitempty is for a
	// record of no samples; validate holds every other to Samples × groups.)
	SampleIDs       []int64 `json:"sample_ids,omitempty"`
	SampleLabels    []int64 `json:"sample_labels,omitempty"`
	SampleGroupLens []int64 `json:"sample_group_lens,omitempty"`
}

// ClampGroup is the scan group a read of the record at group g serves: g,
// or the record's last group when it stores fewer than g — a record may
// store fewer scan groups than the dataset (a grayscale image has fewer
// scans). Every reader of a record, local or remote, clamps through it.
func (r *RecordInfo) ClampGroup(g int) int { return min(g, len(r.Prefixes)-1) }

// EncodeIndex serializes the index as JSON (the serving layer's wire form).
func EncodeIndex(ix *Index) ([]byte, error) {
	data, err := json.Marshal(ix)
	if err != nil {
		return nil, fmt.Errorf("core: encoding index: %w", err)
	}
	return data, nil
}

// ParseIndex deserializes an index and validates its shape; malformed input
// is reported as ErrCorrupt.
func ParseIndex(data []byte) (*Index, error) {
	var ix Index
	if err := json.Unmarshal(data, &ix); err != nil {
		return nil, fmt.Errorf("core: %w: parsing index: %w", ErrCorrupt, err)
	}
	if err := ix.validate(); err != nil {
		return nil, err
	}
	return &ix, nil
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

// IndexFingerprint returns a stable content fingerprint of the index — the
// dataset's generation for cache-coherence purposes (its ETag role).
// Datasets are immutable once written, so two readers that fingerprint the
// same index are reading the same bytes, and a persistent cache keyed by
// the fingerprint can never serve bytes from a different dataset build.
func IndexFingerprint(ix *Index) (string, error) {
	data, err := EncodeIndex(ix)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16]), nil
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
		numRec:    len(ix.Records),
		numImg:    ix.NumImages,
		records:   append([]RecordInfo(nil), ix.Records...),
	}, nil
}
