package core

import (
	"errors"
	"fmt"
)

// This file implements the sample-offset side index: per-record, per-sample
// IDs, labels, and scan-group byte lengths lifted out of the record files
// and into the dataset index. With it, a reader can plan *sample-selective*
// reads — the byte ranges of exactly the samples a predicate selects, at
// exactly the quality it wants — without touching a record file, the same
// way the prefix table already lets it plan whole-record quality reads.
//
// The side index is optional and version-gated: datasets written before it
// existed (or with DatasetOptions.OmitSampleIndex) parse fine and simply
// report ErrNoSampleIndex from the sample-level accessors, in which case
// readers fall back to whole-prefix reads plus client-side filtering.

// ErrNoSampleIndex reports that a record predates the sample-offset side
// index (or was written with OmitSampleIndex), so sample-selective reads
// cannot be planned from the index alone.
var ErrNoSampleIndex = errors.New("no sample index")

// ByteRange is one contiguous byte range within a record file.
type ByteRange struct {
	Offset int64
	Length int64
}

// HasSampleIndex reports whether the record carries the sample-offset side
// index.
func (r *RecordInfo) HasSampleIndex() bool {
	return len(r.SampleGroupLens) > 0
}

// SampleRanges returns the sorted, coalesced byte ranges of the record file
// that must be read to materialize the selected samples at scan group g:
// the metadata section plus, for each group k ≤ g, the selected samples'
// slices within group k. sel must have exactly Samples elements. Selecting
// every sample coalesces to the single range [0, Prefixes[g]); selecting
// none yields just the metadata section.
//
// Both the server and the client compute ranges with this function from the
// same immutable index, which is what makes the pushdown wire format a
// bitmap rather than an offset list: the byte layout is already shared
// knowledge.
func (r *RecordInfo) SampleRanges(g int, sel []bool) ([]ByteRange, error) {
	if !r.HasSampleIndex() {
		return nil, fmt.Errorf("core: record %s: %w", r.Name, ErrNoSampleIndex)
	}
	return sampleByteRanges(r.Prefixes, r.SampleGroupLens, r.Samples, g, sel)
}

// sampleByteRanges computes the coalesced ranges for one record. prefixes
// has numGroups+1 entries; lens is sample-major flattened:
// lens[i*numGroups+(k-1)] is sample i's slice length within group k.
func sampleByteRanges(prefixes []int64, lens []int64, samples, g int, sel []bool) ([]ByteRange, error) {
	ng := len(prefixes) - 1
	if g < 0 || g > ng {
		return nil, fmt.Errorf("core: scan group %d out of range [0,%d]", g, ng)
	}
	if len(sel) != samples {
		return nil, fmt.Errorf("core: selection has %d entries, record has %d samples", len(sel), samples)
	}
	if len(lens) != samples*ng {
		return nil, fmt.Errorf("core: %w: sample index has %d lengths, want %d", ErrCorrupt, len(lens), samples*ng)
	}
	out := make([]ByteRange, 0, 8)
	add := func(off, length int64) {
		if length <= 0 {
			return
		}
		if n := len(out); n > 0 && out[n-1].Offset+out[n-1].Length == off {
			out[n-1].Length += length
			return
		}
		out = append(out, ByteRange{Offset: off, Length: length})
	}
	add(0, prefixes[0]) // metadata section
	for k := 1; k <= g; k++ {
		off := prefixes[k-1]
		for i := 0; i < samples; i++ {
			l := lens[i*ng+(k-1)]
			if sel[i] {
				add(off, l)
			}
			off += l
		}
	}
	return out, nil
}

// RangesTotal returns the summed length of the ranges.
func RangesTotal(ranges []ByteRange) int64 {
	var n int64
	for _, r := range ranges {
		n += r.Length
	}
	return n
}

// GatherRanges extracts the given ranges from a buffer holding the record
// prefix from offset zero and returns their concatenation in order — the
// server-side (and fallback client-side) half of a pushdown read.
func GatherRanges(buf []byte, ranges []ByteRange) ([]byte, error) {
	out := make([]byte, 0, RangesTotal(ranges))
	for _, r := range ranges {
		end := r.Offset + r.Length
		if r.Offset < 0 || end > int64(len(buf)) {
			return nil, fmt.Errorf("core: %w: range [%d,%d) outside %d-byte buffer", ErrCorrupt, r.Offset, end, len(buf))
		}
		out = append(out, buf[r.Offset:end]...)
	}
	return out, nil
}

// ScatterRanges is the inverse of GatherRanges: it copies the concatenated
// range bytes back to their record-file offsets within a sparse prefix
// buffer of the given size. Unfilled bytes are zero; RecordMeta.SampleJPEG
// only touches the selected samples' slices, so the sparse buffer decodes
// those samples identically to a full prefix read. The read path assembles
// straight from the gathered bytes (AssembleSamples); this is the reference
// its tests hold it to.
func ScatterRanges(concat []byte, ranges []ByteRange, size int64) ([]byte, error) {
	if want := RangesTotal(ranges); int64(len(concat)) != want {
		return nil, fmt.Errorf("core: %w: pushdown body has %d bytes, ranges total %d", ErrCorrupt, len(concat), want)
	}
	buf := make([]byte, size)
	var off int64
	for _, r := range ranges {
		if r.Offset < 0 || r.Offset+r.Length > size {
			return nil, fmt.Errorf("core: %w: range [%d,%d) outside %d-byte prefix", ErrCorrupt, r.Offset, r.Offset+r.Length, size)
		}
		copy(buf[r.Offset:], concat[off:off+r.Length])
		off += r.Length
	}
	return buf, nil
}

// AssembleSamples reassembles the samples sel selects at scan group g
// straight from a gathered body: the bytes of SampleRanges(g, sel) in order,
// which are the metadata section followed by the selected samples' slices,
// group by group and in sample order within a group. It returns the parsed
// metadata, which aliases body, and one JPEG stream per sample — the stream
// SampleJPEG builds from a full prefix — nil for the samples not selected.
// A body that is not exactly as long as its own metadata says the selection
// is, a selection of the wrong length and a group the record does not store
// are refused as ErrCorrupt: the index the read was planned from and the
// record disagree.
func AssembleSamples(body []byte, g int, sel []bool) (*RecordMeta, [][]byte, error) {
	m, err := ParseRecordMeta(body)
	if err != nil {
		return nil, nil, err
	}
	if g < 1 || g > m.NumGroups {
		return nil, nil, fmt.Errorf("core: %w: gathered body of scan group %d, record stores [1,%d]", ErrCorrupt, g, m.NumGroups)
	}
	if len(sel) != len(m.Samples) {
		return nil, nil, fmt.Errorf("core: %w: selection has %d entries, record has %d samples", ErrCorrupt, len(sel), len(m.Samples))
	}
	// The body's length is held to the plan before anything is sized or
	// sliced by the lengths in it.
	want := m.BodyStart
	for i, s := range m.Samples {
		if sel[i] {
			for _, n := range s.GroupLens[:g] {
				want += n
			}
		}
	}
	if int64(len(body)) != want {
		return nil, nil, fmt.Errorf("core: %w: gathered body has %d bytes, the selection spans %d", ErrCorrupt, len(body), want)
	}
	streams := make([][]byte, len(sel))
	for i, s := range m.Samples {
		if sel[i] {
			size := len(s.Header) + 2
			for _, n := range s.GroupLens[:g] {
				size += int(n)
			}
			streams[i] = append(make([]byte, 0, size), s.Header...)
		}
	}
	cur := m.BodyStart
	for k := 0; k < g; k++ {
		for i := range streams {
			if sel[i] {
				n := m.Samples[i].GroupLens[k]
				streams[i] = append(streams[i], body[cur:cur+n]...)
				cur += n
			}
		}
	}
	for i := range streams {
		if sel[i] {
			streams[i] = append(streams[i], 0xFF, 0xD9) // EOI
		}
	}
	return m, streams, nil
}

// SampleReader is an optional Backend capability: fetch, in one operation,
// exactly the byte ranges needed to materialize a subset of a record's
// samples at one scan group. Implementations return the concatenation, in
// ascending offset order, of the ranges RecordInfo.SampleRanges computes
// for (group, sel), which AssembleSamples takes apart again. The serving layer's network clients implement this by
// shipping the selection as a compact bitmap (?samples=) so only the
// selected bytes cross the wire.
type SampleReader interface {
	ReadSamples(name string, group int, sel []bool) ([]byte, error)
}

// HasSampleIndex reports whether record i carries the sample-offset side
// index.
func (ds *Dataset) HasSampleIndex(i int) bool {
	if i < 0 || i >= ds.numRec {
		return false
	}
	return len(ds.records[i].sampleLens) > 0
}

// SampleIndex returns record i's per-sample IDs and labels from the side
// index, in storage order, without touching the record file. The slices
// alias dataset state and must not be mutated. Records without a side index
// report ErrNoSampleIndex.
func (ds *Dataset) SampleIndex(i int) (ids, labels []int64, err error) {
	if i < 0 || i >= ds.numRec {
		return nil, nil, fmt.Errorf("core: record %d out of range", i)
	}
	re := &ds.records[i]
	if len(re.sampleLens) == 0 {
		return nil, nil, fmt.Errorf("core: record %d: %w", i, ErrNoSampleIndex)
	}
	return re.sampleIDs, re.sampleLabels, nil
}

// SampleRanges returns the coalesced byte ranges of record i covering the
// selected samples at scan group g (see RecordInfo.SampleRanges).
func (ds *Dataset) SampleRanges(i, g int, sel []bool) ([]ByteRange, error) {
	if i < 0 || i >= ds.numRec {
		return nil, fmt.Errorf("core: record %d out of range", i)
	}
	re := &ds.records[i]
	if len(re.sampleLens) == 0 {
		return nil, fmt.Errorf("core: record %d: %w", i, ErrNoSampleIndex)
	}
	return sampleByteRanges(re.prefixes, re.sampleLens, re.samples, g, sel)
}

// validateSampleIndex checks the side-index arrays of one record entry for
// internal consistency: matching lengths, non-negative slice lengths, and
// per-group sums that equal the prefix deltas. Entries without a side index
// pass trivially.
func validateSampleIndex(samples int, prefixes, ids, labels, lens []int64) error {
	if len(ids) == 0 && len(labels) == 0 && len(lens) == 0 {
		return nil
	}
	ng := len(prefixes) - 1
	if len(ids) != samples || len(labels) != samples || len(lens) != samples*ng {
		return fmt.Errorf("%w: sample index arrays have %d ids, %d labels, %d lengths for %d samples × %d groups",
			ErrCorrupt, len(ids), len(labels), len(lens), samples, ng)
	}
	for k := 1; k <= ng; k++ {
		var sum int64
		for i := 0; i < samples; i++ {
			l := lens[i*ng+(k-1)]
			if l < 0 {
				return fmt.Errorf("%w: sample %d has negative group length", ErrCorrupt, i)
			}
			sum += l
		}
		if sum != prefixes[k]-prefixes[k-1] {
			return fmt.Errorf("%w: group %d sample lengths sum to %d, prefix delta is %d",
				ErrCorrupt, k, sum, prefixes[k]-prefixes[k-1])
		}
	}
	return nil
}
