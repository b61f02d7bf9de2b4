package core

import "fmt"

// This file implements the sample-offset side index: per-record, per-sample
// IDs, labels, and scan-group byte lengths lifted out of the record files
// and into the dataset index. With it, a reader can plan *sample-selective*
// reads — the byte ranges of exactly the samples a predicate selects, at
// exactly the quality it wants — without touching a record file, the same
// way the prefix table already lets it plan whole-record quality reads.
//
// The side index is part of the format: every record entry carries it, and
// an entry whose arrays do not match its sample and group counts is refused
// when the index is parsed (RecordInfo.validate).

// ByteRange is one contiguous byte range within a record file.
type ByteRange struct {
	Offset int64
	Length int64
}

// SampleRanges returns the sorted, coalesced byte ranges of the record file
// that must be read to materialize the selected samples at scan group g:
// the metadata section plus, for each group k ≤ g, the group's preamble (the
// framing its samples share) and the selected samples' slices within group
// k. A group's preamble is what of its bytes the samples' slices leave: the
// prefix delta less their lengths. sel must have exactly Samples elements.
// Selecting every sample coalesces to the single range [0, Prefixes[g]).
//
// Both the server and the client compute ranges with this function from the
// same immutable index, which is what makes the pushdown wire format a
// bitmap rather than an offset list: the byte layout is already shared
// knowledge.
func (r *RecordInfo) SampleRanges(g int, sel []bool) ([]ByteRange, error) {
	if err := r.checkSelection(g, sel); err != nil {
		return nil, err
	}
	prefixes, lens, samples := r.Prefixes, r.SampleGroupLens, r.Samples
	ng := len(prefixes) - 1
	// A group adds at most its preamble and one range per run of adjacent
	// selected samples, so the ranges are allocated once.
	runs := 0
	for i, on := range sel {
		if on && (i == 0 || !sel[i-1]) {
			runs++
		}
	}
	out := make([]ByteRange, 0, 1+g*(1+runs))
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
		off := prefixes[k]
		for i := 0; i < samples; i++ {
			off -= lens[i*ng+(k-1)]
		}
		add(prefixes[k-1], off-prefixes[k-1]) // preamble
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

// checkSelection refuses what SampleRanges cannot plan from: a scan group
// the record does not store, a selection that is not one entry per sample,
// and a side index of the wrong size.
func (r *RecordInfo) checkSelection(g int, sel []bool) error {
	ng := len(r.Prefixes) - 1
	if g < 0 || g > ng {
		return fmt.Errorf("core: scan group %d out of range [0,%d]", g, ng)
	}
	if len(sel) != r.Samples {
		return fmt.Errorf("core: selection has %d entries, record has %d samples", len(sel), r.Samples)
	}
	if len(r.SampleGroupLens) != r.Samples*ng {
		return fmt.Errorf("core: %w: sample index has %d lengths, want %d", ErrCorrupt, len(r.SampleGroupLens), r.Samples*ng)
	}
	return nil
}

// SampleBytes returns what the ranges of SampleRanges(g, sel) total — the
// bytes a sparse read of the selection moves — without building them.
func (r *RecordInfo) SampleBytes(g int, sel []bool) (int64, error) {
	if err := r.checkSelection(g, sel); err != nil {
		return 0, err
	}
	prefixes, lens, samples := r.Prefixes, r.SampleGroupLens, r.Samples
	ng := len(prefixes) - 1
	// SampleRanges adds no range of a length below one.
	total := max(prefixes[0], 0)
	for k := 1; k <= g; k++ {
		preamble := prefixes[k] - prefixes[k-1]
		for i := 0; i < samples; i++ {
			l := lens[i*ng+(k-1)]
			preamble -= l
			if sel[i] {
				total += max(l, 0)
			}
		}
		total += max(preamble, 0)
	}
	return total, nil
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
// prefix from offset zero and returns their concatenation in order, in dst
// when it has room — the server-side (and fallback client-side) half of a
// pushdown read.
func GatherRanges(dst, buf []byte, ranges []ByteRange) ([]byte, error) {
	out := BufferFor(dst, RangesTotal(ranges))[:0]
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
// only touches the groups' preambles and the selected samples' slices, all
// of them among the ranges, so the sparse buffer decodes those samples
// identically to a full prefix read. The read path assembles straight from
// the gathered bytes (AssembleSamples); this is the reference its tests
// hold it to.
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

// AssembleSamples reassembles, as SampleJPEGs does, the samples sel selects
// at scan group g past the first from of them, straight from a gathered
// body: the bytes of SampleRanges(g, sel) in order, which are the metadata
// section m was parsed from followed, group by group, by the group's
// preamble and the selected samples' slices in sample order. m is the
// parse of that section, with every sample's entry, as of a whole prefix
// (Dataset.ParseRecordPrefix). It hands each stream — the one SampleJPEG
// builds from a full prefix — to deliver with its index, in sample order,
// and splices none inside the resume prefix. The streams share bounded
// buffers from bufs, as SampleJPEGs's do, and never alias body. A body
// that is not exactly as long as its own metadata says the selection is, a
// selection of the wrong length and a group the record does not store are
// refused as ErrCorrupt, delivering nothing: the index the read was planned
// from and the record disagree.
func (m *RecordMeta) AssembleSamples(body []byte, g int, sel []bool, from int, bufs StreamBuffers, deliver func(i int, stream []byte)) error {
	if g < 1 || g > m.NumGroups {
		return fmt.Errorf("core: %w: gathered body of scan group %d, record stores [1,%d]", ErrCorrupt, g, m.NumGroups)
	}
	if len(sel) != len(m.Samples) {
		return fmt.Errorf("core: %w: selection has %d entries, record has %d samples", ErrCorrupt, len(sel), len(m.Samples))
	}
	// Where each group's preamble and its first selected slice start in the
	// body. The body's length is held to the plan before anything is sliced
	// by the lengths in it.
	var row [2 * stackGroups]int64
	pos := words(row[:], 2*g)
	c := cursor{m: m, src: body, pre: pos[:g], next: pos[g:]}
	at := m.BodyStart
	for k := range g {
		c.pre[k] = at
		at += m.preamble[k]
		c.next[k] = at
		for i, s := range m.Samples {
			if sel[i] {
				at += s.GroupLens[k]
			}
		}
	}
	if int64(len(body)) != at {
		return fmt.Errorf("core: %w: gathered body has %d bytes, the selection spans %d", ErrCorrupt, len(body), at)
	}
	m.spliceAll(&c, g, sel, from, bufs, deliver)
	return nil
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

// SampleReaderInto is an optional SampleReader capability: ReadSamples into
// a buffer the caller lends, with RangeReaderInto's contract for dst.
type SampleReaderInto interface {
	ReadSamplesInto(dst []byte, name string, group int, sel []bool) ([]byte, error)
}

// SampleIndex returns record i's per-sample IDs and labels from the side
// index, in storage order, without touching the record file. The slices
// alias dataset state and must not be mutated.
func (ds *Dataset) SampleIndex(i int) (ids, labels []int64, err error) {
	if i < 0 || i >= len(ds.records) {
		return nil, nil, fmt.Errorf("core: record %d out of range", i)
	}
	return ds.records[i].SampleIDs, ds.records[i].SampleLabels, nil
}

// SampleRanges returns the coalesced byte ranges of record i covering the
// selected samples at scan group g (see RecordInfo.SampleRanges).
func (ds *Dataset) SampleRanges(i, g int, sel []bool) ([]ByteRange, error) {
	if i < 0 || i >= len(ds.records) {
		return nil, fmt.Errorf("core: record %d out of range", i)
	}
	return ds.records[i].SampleRanges(g, sel)
}

// SampleBytes returns what record i's SampleRanges(g, sel) total, without
// building them (see RecordInfo.SampleBytes).
func (ds *Dataset) SampleBytes(i, g int, sel []bool) (int64, error) {
	if i < 0 || i >= len(ds.records) {
		return 0, fmt.Errorf("core: record %d out of range", i)
	}
	return ds.records[i].SampleBytes(g, sel)
}

// validate checks one record entry, however it arrived (an /index document,
// the metadata database, a caller's Index): a name, a non-negative metadata
// prefix, and a side index whose arrays match Samples × groups with
// non-negative slice lengths that sum, group by group, to no more than the
// (non-negative) prefix deltas — what they leave is the group's preamble.
// Every violation is ErrCorrupt.
func (r *RecordInfo) validate() error {
	if r.Name == "" || len(r.Prefixes) == 0 || r.Prefixes[0] < 0 {
		return fmt.Errorf("%w: record entry needs a name and a non-negative metadata prefix", ErrCorrupt)
	}
	ng, lens := len(r.Prefixes)-1, r.SampleGroupLens
	if len(r.SampleIDs) != r.Samples || len(r.SampleLabels) != r.Samples ||
		int64(len(lens)) != int64(r.Samples)*int64(ng) {
		return fmt.Errorf("%w: sample index arrays have %d ids, %d labels, %d lengths for %d samples × %d groups",
			ErrCorrupt, len(r.SampleIDs), len(r.SampleLabels), len(lens), r.Samples, ng)
	}
	for k := 1; k <= ng; k++ {
		if r.Prefixes[k] < r.Prefixes[k-1] {
			return fmt.Errorf("%w: prefix lengths not monotone at group %d", ErrCorrupt, k)
		}
		// left is what of the group's bytes the lengths have not yet
		// accounted for. Both prefixes are non-negative and a length larger
		// than left is refused before it is subtracted, so nothing overflows.
		delta := r.Prefixes[k] - r.Prefixes[k-1]
		left := delta
		for i := 0; i < r.Samples; i++ {
			l := lens[i*ng+(k-1)]
			if l < 0 || l > left {
				return fmt.Errorf("%w: sample %d's length %d in group %d is negative or past the group's %d bytes",
					ErrCorrupt, i, l, k, delta)
			}
			left -= l
		}
	}
	return nil
}
