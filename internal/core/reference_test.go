package core

// The record parser and reassembly as they were before the parse dropped
// its per-sample tables (sample offsets, a group-lengths row for every
// sample) and sized everything in one first pass — kept word for word but
// for the names, as the reference FuzzParseRecordMeta holds the parser to:
// both accept and refuse the same sections, agree on every prefix length,
// and reassemble the same streams.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/wire"
)

// refSampleMeta describes one image inside a record: its identity, the header
// it shares, and the byte length of its slice of each scan group.
type refSampleMeta struct {
	ID    int64
	Label int64
	// Header indexes refRecordMeta.Headers.
	Header int
	// GroupLens[g-1] is the length of the sample's slice of scan group g:
	// its entropy-coded data of the group's scans, no framing.
	GroupLens []int64

	// scanLens[j] is the length of its data of scan j of its script; a
	// slice holds those of the scans in its group, back to back.
	scanLens []int64
}

// refRecordMeta is the parsed metadata section of a PCR file plus derived
// offset tables.
//
// The body is scan group 1, then scan group 2, and so on. Scan j of a
// script of S scans lands in group j·NumGroups/maxS, maxS being the longest
// script's scan count, so a group holds a contiguous run of every script's
// scans: one scan each when NumGroups is maxS, several when the writer
// coalesced them (RecordOptions.ScanGroups). A group is its preamble — for
// each script in order, the framing (DHT and SOS) of each of its scans in
// the group — followed by every sample's slice, in sample order.
type refRecordMeta struct {
	NumGroups int
	Headers   []RecordHeader
	Samples   []refSampleMeta

	// BodyStart is the file offset where scan group 1 begins.
	BodyStart int64

	scripts  []refRecordScript
	maxScans int // the longest script's scan count
	// prefix[g] is PrefixLen(g); preamble[g-1] is scan group g's preamble
	// length.
	prefix, preamble []int64
	// sampleOffset[(g-1)*len(Samples)+i] is the offset of sample i's slice
	// within group g.
	sampleOffset []int64
}

// PrefixLen returns the number of bytes that must be read from the start of
// the record file to materialize every image at scan group g. Group 0 means
// metadata only.
func (m *refRecordMeta) PrefixLen(g int) (int64, error) {
	if g < 0 || g > m.NumGroups {
		return 0, fmt.Errorf("core: scan group %d out of range [0,%d]", g, m.NumGroups)
	}
	return m.prefix[g], nil
}

// TotalLen returns the full record file size.
func (m *refRecordMeta) TotalLen() int64 {
	return m.prefix[m.NumGroups]
}

// scanRange returns the scans of a script of n scans that scan group k+1
// holds: [lo, hi).
func (m *refRecordMeta) scanRange(k, n int) (lo, hi int) {
	first := func(k int) int { return min((k*m.maxScans+m.NumGroups-1)/m.NumGroups, n) }
	return first(k), first(k + 1)
}

// refRecordScript is one scan script of a record: framing[j] is the length of
// scan j's framing (its DHT and SOS), at[j] where that framing starts in its
// group's preamble; scan group k+1 holds scans first[k] up to first[k+1],
// whose framing is framed[k+1]-framed[k] bytes.
type refRecordScript struct {
	framing, at   []int64
	first, framed []int64
}

// Field numbers for the record metadata wire message.
// refParseRecordMeta parses a record's metadata section. data must contain at
// least the magic, the length word, and the metadata bytes (a PrefixLen(0)
// read suffices; longer prefixes and whole files also work).
//
// The returned refRecordMeta aliases data — every header is a slice of it — so
// it is valid for as long as data is left unmodified.
func refParseRecordMeta(data []byte) (*refRecordMeta, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("core: %w: short record header", ErrCorrupt)
	}
	if [4]byte(data[0:4]) != Magic {
		return nil, fmt.Errorf("core: %w: bad magic %q", ErrCorrupt, data[0:4])
	}
	metaLen := int(binary.LittleEndian.Uint32(data[4:8]))
	if len(data) < 8+metaLen {
		return nil, fmt.Errorf("core: %w: short metadata section (%d < %d)", ErrCorrupt, len(data)-8, metaLen)
	}
	section := data[8 : 8+metaLen]
	m := &refRecordMeta{BodyStart: int64(8 + metaLen)}
	// Any wire-level decode failure inside the metadata section is
	// structural damage, so the whole parse reports as ErrCorrupt.
	if err := refParseRecordFields(section, m); err != nil {
		return nil, fmt.Errorf("core: %w: metadata: %w", ErrCorrupt, err)
	}
	if err := m.check(len(section)); err != nil {
		return nil, fmt.Errorf("core: %w: %w", ErrCorrupt, err)
	}
	m.buildOffsets()
	return m, nil
}

// check holds a parsed section to what every table derived from it needs:
// references in range, as many slice lengths as each sample's script has
// scans, no negative length and a total that stays an int64 — so that
// SampleJPEG never indexes before the start of the prefix it is given — and
// offset tables no larger than the section that spelled them.
func (m *refRecordMeta) check(sectionLen int) error {
	// No writer makes an empty record, and without a sample to hold it to,
	// NumGroups — which sizes the offset tables — would be any number the
	// file cares to spell.
	if len(m.Samples) == 0 {
		return fmt.Errorf("record has no samples")
	}
	for _, sc := range m.scripts {
		m.maxScans = max(m.maxScans, len(sc.framing))
	}
	if m.NumGroups <= 0 || m.NumGroups > m.maxScans {
		return fmt.Errorf("record has %d scan groups for scripts of up to %d scans", m.NumGroups, m.maxScans)
	}
	// Every sample spells more bytes than it has groups; a section that
	// does not is no writer's, and would size the tables beyond itself.
	if int64(m.NumGroups)*int64(len(m.Samples)) > int64(sectionLen) {
		return fmt.Errorf("%d groups × %d samples from a %d-byte section", m.NumGroups, len(m.Samples), sectionLen)
	}
	// Nor may the scripts, each of which takes NumGroups+1 entries of two
	// tables however few scans it has: a writer makes one or two, beside
	// headers of a hundred bytes and more.
	if int64(m.NumGroups+1)*int64(len(m.scripts)) > int64(sectionLen) {
		return fmt.Errorf("%d groups × %d scripts from a %d-byte section", m.NumGroups, len(m.scripts), sectionLen)
	}
	for k, h := range m.Headers {
		if h.Script < 0 || h.Script >= len(m.scripts) {
			return fmt.Errorf("header %d names script %d of %d", k, h.Script, len(m.scripts))
		}
	}
	total := m.BodyStart
	add := func(n int64) bool {
		ok := n >= 0 && total+n >= total
		total += n
		return ok
	}
	for k, sc := range m.scripts {
		for j, n := range sc.framing {
			if !add(n) {
				return fmt.Errorf("script %d claims %d bytes of framing for scan %d", k, uint64(n), j)
			}
		}
	}
	for i := range m.Samples {
		s := &m.Samples[i]
		if s.Header < 0 || s.Header >= len(m.Headers) {
			return fmt.Errorf("sample %d names header %d of %d", i, s.Header, len(m.Headers))
		}
		if want := len(m.scripts[m.Headers[s.Header].Script].framing); len(s.scanLens) != want {
			return fmt.Errorf("sample %d has %d scan lengths, its script %d scans", i, len(s.scanLens), want)
		}
		for j, n := range s.scanLens {
			if !add(n) {
				return fmt.Errorf("sample %d claims %d bytes of scan %d", i, uint64(n), j)
			}
		}
	}
	return nil
}

// refParseRecordFields fills m from the metadata section. Nothing is sized by a
// number the section merely spells: the samples, headers and scripts by the
// fields present, the arrays of lengths by the bytes present. Each sample's
// scan lengths and each script's framing lengths are decoded into one array
// apiece and sliced out of it once the section is read.
func refParseRecordFields(section []byte, m *refRecordMeta) error {
	var counts [5]int // by field number
	for d := wire.NewDecoder(section); !d.Done(); {
		field, wtype, err := d.Next()
		if err != nil {
			return err
		}
		if field < len(counts) {
			counts[field]++
		}
		if err := d.Skip(wtype); err != nil {
			return err
		}
	}
	m.Samples = make([]refSampleMeta, 0, counts[fieldSample])
	m.Headers = make([]RecordHeader, 0, counts[fieldHeader])
	m.scripts = make([]refRecordScript, 0, counts[fieldScript])
	var lens, frames []int64
	d := wire.NewDecoder(section)
	for !d.Done() {
		field, wtype, err := d.Next()
		if err != nil {
			return err
		}
		switch field {
		case fieldNumGroups:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			m.NumGroups = int(v)
		case fieldScript:
			packed, err := d.Bytes()
			if err != nil {
				return err
			}
			from := len(frames)
			if frames, err = refAppendPacked(frames, packed); err != nil {
				return err
			}
			m.scripts = append(m.scripts, refRecordScript{framing: frames[from:]})
		case fieldHeader:
			raw, err := d.Bytes()
			if err != nil {
				return err
			}
			var h RecordHeader
			if err := refParseHeader(raw, &h); err != nil {
				return err
			}
			m.Headers = append(m.Headers, h)
		case fieldSample:
			raw, err := d.Bytes()
			if err != nil {
				return err
			}
			var sm refSampleMeta
			from := len(lens)
			if lens, err = refParseSampleMeta(raw, &sm, lens); err != nil {
				return err
			}
			sm.scanLens = lens[from:]
			m.Samples = append(m.Samples, sm)
			if len(m.Samples) == 1 {
				// A writer gives most samples as many lengths as the
				// first; a length is at least a byte of the section.
				lens = slices.Grow(lens, min((counts[fieldSample]-1)*len(lens), len(section)))
			}
		default:
			if err := d.Skip(wtype); err != nil {
				return err
			}
		}
	}
	// The arrays may have moved as they grew: slice every sample's and
	// every script's lengths out of where they ended up.
	off := 0
	for k := range m.scripts {
		n := len(m.scripts[k].framing)
		m.scripts[k].framing = frames[off : off+n : off+n]
		off += n
	}
	off = 0
	for i := range m.Samples {
		n := len(m.Samples[i].scanLens)
		m.Samples[i].scanLens = lens[off : off+n : off+n]
		off += n
	}
	return nil
}

// refAppendPacked appends the varints of a packed field to vs, growing vs at
// most once: there are no more of them than bytes.
func refAppendPacked(vs []int64, packed []byte) ([]int64, error) {
	vs = slices.Grow(vs, len(packed))
	for p := wire.NewDecoder(packed); !p.Done(); {
		v, err := p.Uint64()
		if err != nil {
			return vs, err
		}
		vs = append(vs, int64(v))
	}
	return vs, nil
}

// refParseHeader fills h from one header message; h.JPEG aliases raw.
func refParseHeader(raw []byte, h *RecordHeader) error {
	d := wire.NewDecoder(raw)
	for !d.Done() {
		field, wtype, err := d.Next()
		if err != nil {
			return err
		}
		switch field {
		case hfJPEG:
			if h.JPEG, err = d.Bytes(); err != nil {
				return err
			}
		case hfScript:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			h.Script = int(v)
		default:
			if err := d.Skip(wtype); err != nil {
				return err
			}
		}
	}
	return nil
}

// refParseSampleMeta fills sm from one sample message, appending its scan
// lengths to lens.
func refParseSampleMeta(raw []byte, sm *refSampleMeta, lens []int64) ([]int64, error) {
	d := wire.NewDecoder(raw)
	for !d.Done() {
		field, wtype, err := d.Next()
		if err != nil {
			return lens, err
		}
		switch field {
		case sfID:
			v, err := d.Uint64()
			if err != nil {
				return lens, err
			}
			sm.ID = int64(v)
		case sfLabel:
			if sm.Label, err = d.Int64(); err != nil {
				return lens, err
			}
		case sfHeader:
			v, err := d.Uint64()
			if err != nil {
				return lens, err
			}
			sm.Header = int(v)
		case sfScanLens:
			packed, err := d.Bytes()
			if err != nil {
				return lens, err
			}
			if lens, err = refAppendPacked(lens, packed); err != nil {
				return lens, err
			}
		default:
			if err := d.Skip(wtype); err != nil {
				return lens, err
			}
		}
	}
	return lens, nil
}

// buildOffsets derives, in one allocation, every sample's group lengths and
// the offset tables from the checked lengths.
func (m *refRecordMeta) buildOffsets() {
	n, ng := len(m.Samples), m.NumGroups
	nf := 0
	for _, sc := range m.scripts {
		nf += len(sc.framing)
	}
	table := make([]int64, (ng+1)+ng+2*ng*n+nf+2*(ng+1)*len(m.scripts))
	carve := func(k int) []int64 {
		s := table[:k:k]
		table = table[k:]
		return s
	}
	m.prefix, m.preamble, m.sampleOffset = carve(ng+1), carve(ng), carve(ng*n)
	for k := range m.scripts {
		sc := &m.scripts[k]
		sc.at, sc.first, sc.framed = carve(len(sc.framing)), carve(ng+1), carve(ng+1)
		for g := range ng {
			lo, hi := m.scanRange(g, len(sc.framing))
			sc.first[g], sc.first[g+1], sc.framed[g+1] = int64(lo), int64(hi), sc.framed[g]
			for j := lo; j < hi; j++ {
				sc.at[j] = m.preamble[g]
				m.preamble[g] += sc.framing[j]
				sc.framed[g+1] += sc.framing[j]
			}
		}
	}
	// A sample's group lengths sum its scans group by group; each slice
	// starts where the one before it in the group ends, the first where
	// the preamble does. prefix[g+1] runs along group g until the end,
	// when it becomes the prefix length.
	copy(m.prefix[1:], m.preamble)
	for i := range m.Samples {
		s := &m.Samples[i]
		first := m.scripts[m.Headers[s.Header].Script].first
		s.GroupLens = carve(ng)
		g := 0
		for j, l := range s.scanLens {
			for int64(j) >= first[g+1] {
				g++
			}
			s.GroupLens[g] += l
		}
		for g, l := range s.GroupLens {
			m.sampleOffset[g*n+i] = m.prefix[g+1]
			m.prefix[g+1] += l
		}
	}
	m.prefix[0] = m.BodyStart
	for g := range ng {
		m.prefix[g+1] += m.prefix[g]
	}
}

// refMaxSharedStreams bounds a buffer that the streams of one read share
// (spliceAll), so a sample a caller keeps pins at most this much besides
// its own bytes. A stream longer than it gets a buffer of its own.
const refMaxSharedStreams = 1 << 20

// streamLen is the length of sample i's stream at scan group g: its header,
// the framing of its scans in groups 1..g, their data, and EOI.
func (m *refRecordMeta) streamLen(i, g int) int64 {
	s := &m.Samples[i]
	h := &m.Headers[s.Header]
	size := int64(len(h.JPEG)) + 2 + m.scripts[h.Script].framed[g]
	for _, l := range s.GroupLens[:g] {
		size += l
	}
	return size
}

// splice appends sample i's stream at scan group g to dst, which the caller
// sized for it (streamLen): its header; for each group, the framing of each
// of its scans there, from the group's preamble, followed by its data of
// that scan, from its slice; then EOI. group(k) returns group k+1's
// preamble and the sample's slice of it, and is called once per group, in
// order. It is the one place a stream is put together: SampleJPEG and
// SampleJPEGs take the pieces from a record prefix, refAssembleSamples from a
// gathered body. The caller has held the sample's group lengths to the
// bytes it has; a slice is exactly as long as the sample's scans in its
// group, which buildOffsets summed over the same scans this walks.
func (m *refRecordMeta) splice(dst []byte, i, g int, group func(k int) (preamble, slice []byte)) []byte {
	s := &m.Samples[i]
	h := &m.Headers[s.Header]
	sc := &m.scripts[h.Script]
	dst = append(dst, h.JPEG...)
	scanLens, framing, at, first := s.scanLens, sc.framing, sc.at, sc.first
	for k := range g {
		pre, slice := group(k)
		for j := first[k]; j < first[k+1]; j++ {
			n := scanLens[j]
			dst = append(dst, pre[at[j]:at[j]+framing[j]]...)
			dst = append(dst, slice[:n]...)
			slice = slice[n:]
		}
	}
	return append(dst, 0xFF, 0xD9) // EOI
}

// spliceAll splices, in sample order, the samples sel selects (every one
// when sel is nil) past the first from of them at scan group g, and hands
// each to deliver with its index. group(i, k) is splice's group(k) for
// sample i. The streams share buffers, each exactly as long as the
// consecutive streams it holds and at most refMaxSharedStreams unless it holds
// one longer stream alone; each stream is a full slice expression of its
// buffer, so appending to it never writes into the next.
func (m *refRecordMeta) spliceAll(g int, sel []bool, from int, group func(i, k int) (preamble, slice []byte), deliver func(i int, stream []byte)) {
	var buf []byte
	for i := range m.Samples {
		if sel != nil && !sel[i] {
			continue
		}
		if from > 0 {
			from--
			continue
		}
		n := m.streamLen(i, g)
		if int64(cap(buf)-len(buf)) < n {
			// A new buffer, for this stream and as many of the delivered
			// streams after it as fit under the bound.
			size := n
			for j := i + 1; j < len(m.Samples); j++ {
				if sel != nil && !sel[j] {
					continue
				}
				l := m.streamLen(j, g)
				if size+l > refMaxSharedStreams {
					break
				}
				size += l
			}
			buf = make([]byte, 0, size)
		}
		start := len(buf)
		buf = m.splice(buf, i, g, func(k int) ([]byte, []byte) { return group(i, k) })
		deliver(i, buf[start:len(buf):len(buf)])
	}
}

// checkSample refuses sample i at scan group g unless the prefix holds
// every slice its group lengths claim. A stream is sized by those lengths,
// so they are held to the bytes there are before anything is sized or
// sliced by them. The caller has checked i, g and the prefix length.
func (m *refRecordMeta) checkSample(prefix []byte, i, g int) error {
	n := len(m.Samples)
	for k, l := range m.Samples[i].GroupLens[:g] {
		if l < 0 || l > int64(len(prefix))-m.prefix[k]-m.sampleOffset[k*n+i] {
			return fmt.Errorf("core: %w: sample %d claims %d bytes of scan group %d", ErrCorrupt, i, l, k+1)
		}
	}
	return nil
}

// checkPrefix refuses a scan group the record does not store and a prefix
// too short for it.
func (m *refRecordMeta) checkPrefix(prefix []byte, g int) error {
	if g < 1 || g > m.NumGroups {
		return fmt.Errorf("core: scan group %d out of range [1,%d]", g, m.NumGroups)
	}
	if need := m.prefix[g]; int64(len(prefix)) < need {
		return fmt.Errorf("core: prefix has %d bytes, scan group %d needs %d", len(prefix), g, need)
	}
	return nil
}

// prefixPieces is splice's group for sample i, from a record prefix.
func (m *refRecordMeta) prefixPieces(prefix []byte, i, k int) (preamble, slice []byte) {
	start := m.prefix[k]
	off := start + m.sampleOffset[k*len(m.Samples)+i]
	return prefix[start : start+m.preamble[k]], prefix[off : off+m.Samples[i].GroupLens[k]]
}

// SampleJPEG reassembles sample i as a decodable JPEG stream at scan group
// g: its header, the framing and its data of every scan in groups 1..g, and
// a terminating EOI. prefix must hold at least PrefixLen(g) bytes of the
// record file. The stream is a buffer of its own, exactly its length.
func (m *refRecordMeta) SampleJPEG(prefix []byte, i, g int) ([]byte, error) {
	if i < 0 || i >= len(m.Samples) {
		return nil, fmt.Errorf("core: sample %d out of range", i)
	}
	if err := m.checkPrefix(prefix, g); err != nil {
		return nil, err
	}
	if err := m.checkSample(prefix, i, g); err != nil {
		return nil, err
	}
	return m.splice(make([]byte, 0, m.streamLen(i, g)), i, g, func(k int) ([]byte, []byte) {
		return m.prefixPieces(prefix, i, k)
	}), nil
}

// SampleJPEGs reassembles, as SampleJPEG does, the samples sel selects
// (every sample when sel is nil) past the first from of them — what one
// record read delivers — and hands each to deliver with its index, in
// sample order. The streams share exactly-sized buffers of at most 1 MiB
// (a longer stream has its own), none of them prefix; appending to one
// stream never changes another. Nothing is delivered unless every selected
// sample checks out.
func (m *refRecordMeta) SampleJPEGs(prefix []byte, g int, sel []bool, from int, deliver func(i int, stream []byte)) error {
	if sel != nil && len(sel) != len(m.Samples) {
		return fmt.Errorf("core: selection has %d entries, record has %d samples", len(sel), len(m.Samples))
	}
	if err := m.checkPrefix(prefix, g); err != nil {
		return err
	}
	for i := range m.Samples {
		if sel == nil || sel[i] {
			if err := m.checkSample(prefix, i, g); err != nil {
				return err
			}
		}
	}
	m.spliceAll(g, sel, from, func(i, k int) ([]byte, []byte) {
		return m.prefixPieces(prefix, i, k)
	}, deliver)
	return nil
}

// refAssembleSamples reassembles the samples sel selects at scan group g
// straight from a gathered body: the bytes of SampleRanges(g, sel) in order,
// which are the metadata section followed, group by group, by the group's
// preamble and the selected samples' slices in sample order. It returns the
// parsed metadata, which aliases body, and one JPEG stream per sample — the
// stream SampleJPEG builds from a full prefix — nil for the samples not
// selected. The streams share bounded, exactly-sized buffers, as
// SampleJPEGs's do, and never alias body. A body that is not exactly as
// long as its own metadata says the selection is, a selection of the wrong
// length and a group the record does not store are refused as ErrCorrupt:
// the index the read was planned from and the record disagree.
func refAssembleSamples(body []byte, g int, sel []bool) (*refRecordMeta, [][]byte, error) {
	m, err := refParseRecordMeta(body)
	if err != nil {
		return nil, nil, err
	}
	if g < 1 || g > m.NumGroups {
		return nil, nil, fmt.Errorf("core: %w: gathered body of scan group %d, record stores [1,%d]", ErrCorrupt, g, m.NumGroups)
	}
	if len(sel) != len(m.Samples) {
		return nil, nil, fmt.Errorf("core: %w: selection has %d entries, record has %d samples", ErrCorrupt, len(sel), len(m.Samples))
	}
	// Where each group's preamble and its first selected slice start in the
	// body. The body's length is held to the plan before anything is sliced
	// by the lengths in it.
	pos := make([]int64, 2*g)
	pre, next := pos[:g], pos[g:]
	at := m.BodyStart
	for k := range g {
		pre[k] = at
		at += m.preamble[k]
		next[k] = at
		for i, s := range m.Samples {
			if sel[i] {
				at += s.GroupLens[k]
			}
		}
	}
	if int64(len(body)) != at {
		return nil, nil, fmt.Errorf("core: %w: gathered body has %d bytes, the selection spans %d", ErrCorrupt, len(body), at)
	}
	// spliceAll visits the selected samples in order, as they lie in each
	// group of the body.
	streams := make([][]byte, len(sel))
	m.spliceAll(g, sel, 0, func(i, k int) ([]byte, []byte) {
		l := m.Samples[i].GroupLens[k]
		slice := body[next[k] : next[k]+l]
		next[k] += l
		return body[pre[k] : pre[k]+m.preamble[k]], slice
	}, func(i int, stream []byte) { streams[i] = stream })
	return m, streams, nil
}
