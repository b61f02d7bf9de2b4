// Package core implements Progressive Compressed Records (PCRs), the
// paper's storage format. A PCR file stores a batch of progressively
// compressed images rearranged by scan group: first a metadata section
// (labels, the record's distinct JPEG headers — stored once and referenced
// by index — and the length of every slice), then scan group 1, then scan
// group 2, and so on. Each scan group opens with a preamble: the Huffman
// tables (DHT) and scan header (SOS) of each of its scans, which all the
// record's images of a kind share. Every image's slice of the group follows
// — its entropy-coded data of those scans and nothing else.
//
// Reading the file prefix up to scan group k therefore yields every image in
// the record at quality level k with one sequential read, and pays for the
// JPEG framing once per record instead of once per image. Reading all groups
// costs fewer bytes than the conventional JPEG dataset: the layout adds no
// space overhead, and sharing the framing takes some away.
package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/jpegc"
	"repro/internal/wire"
)

// Magic identifies a PCR record file.
var Magic = [4]byte{'P', 'C', 'R', '2'}

// ErrCorrupt reports a structurally damaged record: a truncated prefix read,
// a bad magic number, or a metadata section that does not parse. It is
// distinguishable with errors.Is from transient I/O errors, which are
// returned unwrapped. The public pcr package re-exports it as pcr.ErrCorrupt.
var ErrCorrupt = errors.New("corrupt record")

// Sample is one labeled encoded image handed to the record writer. JPEG may
// be baseline or progressive; either is losslessly transcoded.
type Sample struct {
	ID    int64
	Label int64
	JPEG  []byte
}

// SampleMeta describes one image inside a record: its identity, the header
// it shares, and the byte length of its slice of each scan group.
type SampleMeta struct {
	ID    int64
	Label int64
	// Header indexes RecordMeta.Headers.
	Header int
	// GroupLens[g-1] is the length of the sample's slice of scan group g:
	// its entropy-coded data of the group's scans, no framing. When each of
	// the sample's scans is a group of its own it is the sample's scan
	// lengths themselves, so it is the parser's to write, not the caller's.
	GroupLens []int64

	// scanAt and scanN place the sample's scan lengths in RecordMeta.lens
	// (RecordMeta.scanLens).
	scanAt, scanN uint32
}

// RecordHeader is one distinct stream header of a record, SOI through SOF,
// and the scan script its samples are coded with: what indexes the script's
// framing in each group's preamble.
type RecordHeader struct {
	JPEG   []byte
	Script int
}

// RecordMeta is the parsed metadata section of a PCR file plus the tables
// derived from it, all of them per record or per script — prefix and
// preamble lengths, where each scan's framing lies — but for GroupLens,
// which a sample has a row of its own for only when its scans are coalesced
// (otherwise GroupLens aliases its scan lengths). No table locates a
// sample's slices: a read finds them by summing, in sample order, the slices
// before them.
//
// The body is scan group 1, then scan group 2, and so on. Scan j of a
// script of S scans lands in group j·NumGroups/maxS, maxS being the longest
// script's scan count, so a group holds a contiguous run of every script's
// scans: one scan each when NumGroups is maxS, several when the writer
// coalesced them (RecordOptions.ScanGroups). A group is its preamble — for
// each script in order, the framing (DHT and SOS) of each of its scans in
// the group — followed by every sample's slice, in sample order.
type RecordMeta struct {
	NumGroups int
	Headers   []RecordHeader
	// Samples holds every sample of the record, in sample order, whatever
	// bytes it was parsed from: a whole prefix or a gathered body.
	Samples []SampleMeta

	// BodyStart is the file offset where scan group 1 begins.
	BodyStart int64

	scripts  []recordScript
	maxScans int // the longest script's scan count
	// lens holds the scan lengths of every sample in Samples, in order, at
	// the start of the arena that holds the scripts' framing lengths and
	// every derived table too. Its capacity is the arena's, which a parse
	// into this RecordMeta reuses, as it does the room of Samples, Headers
	// and scripts.
	lens []int64
	// prefix[g] is PrefixLen(g); preamble[g-1] is scan group g's preamble
	// length.
	prefix, preamble []int64
}

// scanLens returns s's scan lengths: [j] is the length of its data of scan
// j of its script; a slice holds those of the scans in its group, back to
// back.
func (m *RecordMeta) scanLens(s *SampleMeta) []int64 {
	end := s.scanAt + s.scanN
	return m.lens[s.scanAt:end:end]
}

// PrefixLen returns the number of bytes that must be read from the start of
// the record file to materialize every image at scan group g. Group 0 means
// metadata only.
func (m *RecordMeta) PrefixLen(g int) (int64, error) {
	if g < 0 || g > m.NumGroups {
		return 0, fmt.Errorf("core: scan group %d out of range [0,%d]", g, m.NumGroups)
	}
	return m.prefix[g], nil
}

// TotalLen returns the full record file size.
func (m *RecordMeta) TotalLen() int64 {
	return m.prefix[m.NumGroups]
}

// scanRange returns the scans of a script of n scans that scan group k+1
// holds: [lo, hi).
func (m *RecordMeta) scanRange(k, n int) (lo, hi int) {
	first := func(k int) int { return min((k*m.maxScans+m.NumGroups-1)/m.NumGroups, n) }
	return first(k), first(k + 1)
}

// recordScript is one scan script of a record: framing[j] is the length of
// scan j's framing (its DHT and SOS), at[j] where that framing starts in its
// group's preamble; scan group k+1 holds scans first[k] up to first[k+1],
// whose framing is framed[k+1]-framed[k] bytes.
type recordScript struct {
	framing, at   []int64
	first, framed []int64
}

// Field numbers for the record metadata wire message.
const (
	fieldNumGroups = 1
	fieldSample    = 2
	fieldHeader    = 3
	fieldScript    = 4 // packed: each scan's framing length

	sfID       = 1
	sfLabel    = 2
	sfHeader   = 3
	sfScanLens = 4

	hfJPEG   = 1
	hfScript = 2
)

// RecordOptions tune record layout.
type RecordOptions struct {
	// ScanGroups, when positive, coalesces the progressive scans into that
	// many scan groups (the paper's "scan group" knob, §3.1): adjacent scans
	// are bucketed so the record exposes exactly ScanGroups quality levels.
	// Zero keeps one group per scan.
	ScanGroups int
}

// WriteRecord transcodes the samples to progressive form, rearranges their
// scans into scan groups, and writes the complete PCR record to w. It
// returns the parsed metadata of the record it wrote.
//
// Every color image contributes 10 scans (the libjpeg default script);
// grayscale images contribute 6 and simply have empty slices in the
// remaining groups.
func WriteRecord(w io.Writer, samples []Sample) (*RecordMeta, error) {
	return WriteRecordOpts(w, samples, nil)
}

// recordBuilder is what a record write reuses from record to record: the
// coder's buffers and the record's bytes.
type recordBuilder struct {
	coder  jpegc.RecordCoder
	inputs [][]byte
	meta   wire.Encoder
	sub    wire.Encoder
	lens   []uint64
	record []byte
}

// spare is the one builder kept between records, so a process that writes
// records one after another — every writer in this repository — grows a
// record's token arenas, megabytes for 32 photographs, once rather than per
// record. It keeps one builder's buffers for the life of the process. A
// write that finds it taken codes with a builder of its own, which is
// dropped unless spare is empty when the write ends.
var spare atomic.Pointer[recordBuilder]

func getBuilder() *recordBuilder {
	if b := spare.Swap(nil); b != nil {
		return b
	}
	return new(recordBuilder)
}

func putBuilder(b *recordBuilder) {
	spare.CompareAndSwap(nil, b)
}

// WriteRecordOpts is WriteRecord with layout options. The samples are coded
// together (jpegc.RecordCoder): one header per kind of image and one set of
// Huffman tables per scan, shared by the whole record. It hands w the
// record in one write.
func WriteRecordOpts(w io.Writer, samples []Sample, opts *RecordOptions) (*RecordMeta, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: empty record")
	}
	b := getBuilder()
	defer putBuilder(b)
	for _, s := range samples {
		b.inputs = append(b.inputs, s.JPEG)
	}
	rec, err := b.coder.Transcode(b.inputs)
	clear(b.inputs)
	b.inputs = b.inputs[:0]
	if err != nil {
		if ie, ok := err.(*jpegc.ImageError); ok {
			return nil, fmt.Errorf("core: sample %d: %w", samples[ie.Index].ID, ie.Err)
		}
		return nil, fmt.Errorf("core: %w", err)
	}
	numGroups := 0
	for _, script := range rec.Scripts {
		numGroups = max(numGroups, len(script))
	}
	if k := optScanGroups(opts); k > 0 && k < numGroups {
		numGroups = k
	}

	section := b.encodeMeta(rec, samples, numGroups)
	out := append(b.record[:0], Magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(section)))
	out = append(out, section...)
	// The metadata returned is parsed from a copy of what is written, and
	// lays the body out: the writer and every reader slice by one
	// arithmetic.
	m, err := ParseRecordMeta(bytes.Clone(out))
	if err != nil {
		return nil, err
	}
	for k := 0; k < numGroups; k++ {
		for _, script := range rec.Scripts {
			lo, hi := m.scanRange(k, len(script))
			for _, framing := range script[lo:hi] {
				out = append(out, framing...)
			}
		}
		for _, img := range rec.Images {
			lo, hi := m.scanRange(k, len(img.Scans))
			for _, data := range img.Scans[lo:hi] {
				out = append(out, data...)
			}
		}
	}
	b.record = out
	if _, err := w.Write(out); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return m, nil
}

// encodeMeta encodes the metadata section of a coded record.
func (b *recordBuilder) encodeMeta(rec *jpegc.CodedRecord, samples []Sample, numGroups int) []byte {
	enc, sub := &b.meta, &b.sub
	enc.Reset()
	enc.Uint64(fieldNumGroups, uint64(numGroups))
	for _, script := range rec.Scripts {
		enc.PackedUint64(fieldScript, b.lensOf(script))
	}
	for _, h := range rec.Headers {
		sub.Reset()
		sub.Bytes(hfJPEG, h.JPEG)
		sub.Uint64(hfScript, uint64(h.Script))
		enc.Bytes(fieldHeader, sub.Encode())
	}
	for i, img := range rec.Images {
		sub.Reset()
		sub.Uint64(sfID, uint64(samples[i].ID))
		sub.Int64(sfLabel, samples[i].Label)
		sub.Uint64(sfHeader, uint64(img.Header))
		sub.PackedUint64(sfScanLens, b.lensOf(img.Scans))
		enc.Bytes(fieldSample, sub.Encode())
	}
	return enc.Encode()
}

// lensOf returns the lengths of parts, in a buffer the next call reuses.
func (b *recordBuilder) lensOf(parts [][]byte) []uint64 {
	b.lens = b.lens[:0]
	for _, p := range parts {
		b.lens = append(b.lens, uint64(len(p)))
	}
	return b.lens
}

func optScanGroups(opts *RecordOptions) int {
	if opts == nil {
		return 0
	}
	return opts.ScanGroups
}

// ParseRecordMeta parses a record's metadata section. data must contain at
// least the magic, the length word, and the metadata bytes (a PrefixLen(0)
// read suffices; longer prefixes and whole files also work).
//
// A first pass over the section (measure) sizes everything the parse
// allocates, once: the RecordMeta, its samples, headers and scripts, and
// one arena that holds every framing and scan length the section spells and
// every table derived from them — prefix and preamble lengths, each
// script's framing offsets, and a GroupLens row for each sample whose scans
// are coalesced into fewer groups (every other sample's GroupLens is its
// scan lengths).
//
// The returned RecordMeta aliases data — every header is a slice of it — so
// it is valid for as long as data is left unmodified.
func ParseRecordMeta(data []byte) (*RecordMeta, error) {
	m := new(RecordMeta)
	if err := m.parse(data); err != nil {
		return nil, err
	}
	return m, nil
}

// parse is the one record parser, under ParseRecordMeta and
// Dataset.ParseRecordPrefix. It overwrites all of m, and allocates only
// where m's slices, from the parse before, lack the room this section
// needs.
func (m *RecordMeta) parse(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("core: %w: short record header", ErrCorrupt)
	}
	if [4]byte(data[0:4]) != Magic {
		return fmt.Errorf("core: %w: bad magic %q", ErrCorrupt, data[0:4])
	}
	metaLen := int(binary.LittleEndian.Uint32(data[4:8]))
	if len(data) < 8+metaLen {
		return fmt.Errorf("core: %w: short metadata section (%d < %d)", ErrCorrupt, len(data)-8, metaLen)
	}
	section := data[8 : 8+metaLen]
	// Any wire-level decode failure inside the metadata section is
	// structural damage, so the whole parse reports as ErrCorrupt.
	shape, err := measure(section)
	if err != nil {
		return fmt.Errorf("core: %w: metadata: %w", ErrCorrupt, err)
	}
	lens, framing := shape.scans, shape.scans+shape.framing
	size := framing + shape.derived(len(section))
	arena := room(m.lens, size)[:size]
	clear(arena)
	*m = RecordMeta{
		BodyStart: int64(8 + metaLen),
		Samples:   room(m.Samples, shape.samples),
		Headers:   room(m.Headers, shape.headers),
		scripts:   room(m.scripts, shape.scripts),
	}
	err = parseRecordFields(section, m, arena[:0:lens], arena[lens:lens:framing])
	if len(m.lens) <= lens {
		// The arena's room goes with lens (a section whose wire types
		// misled the first pass moved lens off it).
		m.lens = arena[:len(m.lens)]
	}
	if err != nil {
		return fmt.Errorf("core: %w: metadata: %w", ErrCorrupt, err)
	}
	if err := m.check(len(section)); err != nil {
		return fmt.Errorf("core: %w: %w", ErrCorrupt, err)
	}
	m.buildOffsets(arena[framing:])
	return nil
}

// room returns s emptied, over its own array when that holds n and over a
// new one of n otherwise.
func room[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Reset lets go of the bytes m was last parsed from — its headers alias
// them — and keeps the room of its tables for the next parse into it
// (Dataset.ParseRecordPrefix).
func (m *RecordMeta) Reset() {
	clear(m.Headers[:cap(m.Headers)])
	*m = RecordMeta{Samples: m.Samples[:0], Headers: m.Headers[:0], scripts: m.scripts[:0], lens: m.lens[:0]}
}

// recordShape is what the first pass over a metadata section learns before
// anything is allocated.
type recordShape struct {
	samples, headers, scripts int
	// scans and framing are how many scan and framing lengths the samples
	// and the scripts spell: the varints their packed fields end.
	scans, framing int
	groups         int // the group count, as last spelled
	maxScans       int // the most framing lengths one script spells
	// longest is the most scan lengths one sample spells, atLongest how
	// many samples spell that many.
	longest, atLongest int
}

// derived is how many words buildOffsets carves from the arena for a
// section of this shape: prefix and preamble lengths, each script's framing
// offsets and two entries per group and one more, and a row of group
// lengths for each sample but those whose scan lengths are their group
// lengths (scansAreGroups). A shape that check refuses reserves nothing:
// nothing is sized by the numbers it spells.
func (s *recordShape) derived(sectionLen int) int {
	ng, limit := s.groups, int64(sectionLen)
	if s.samples == 0 || ng <= 0 || ng > s.maxScans ||
		int64(ng)*int64(s.samples) > limit || int64(ng+1)*int64(s.scripts) > limit {
		return 0
	}
	rows := s.samples
	if ng == s.maxScans && s.longest == ng {
		rows -= s.atLongest
	}
	return 2*ng + 1 + s.framing + 2*(ng+1)*s.scripts + rows*ng
}

// measure is ParseRecordMeta's first pass. It steps over each field as its
// wire type says, and refuses what that walk cannot step over, as the parse
// always has; of the fields the parse decodes, it counts what they spell.
// A sample message it cannot read it counts as far as it reads: the parse
// refuses it.
func measure(section []byte) (recordShape, error) {
	var s recordShape
	for d := wire.NewDecoder(section); !d.Done(); {
		field, wtype, err := d.Next()
		if err != nil {
			return s, err
		}
		switch field {
		case fieldSample:
			s.samples++
		case fieldHeader:
			s.headers++
		case fieldScript:
			s.scripts++
		}
		switch {
		case field == fieldNumGroups && wtype == wire.TypeVarint:
			v, err := d.Uint64()
			if err != nil {
				return s, err
			}
			s.groups = int(v)
		case (field == fieldScript || field == fieldSample) && wtype == wire.TypeBytes:
			raw, err := d.Bytes()
			if err != nil {
				return s, err
			}
			if field == fieldScript {
				n := wire.Varints(raw)
				s.framing += n
				s.maxScans = max(s.maxScans, n)
				break
			}
			n := countScanLens(raw)
			s.scans += n
			switch {
			case n > s.longest:
				s.longest, s.atLongest = n, 1
			case n == s.longest:
				s.atLongest++
			}
		default:
			if err := d.Skip(wtype); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

// check holds a parsed section to what every table derived from it needs:
// references in range, as many slice lengths as each sample's script has
// scans, no negative length and a total that stays an int64 — so that
// SampleJPEG never indexes before the start of the prefix it is given — and
// offset tables no larger than the section that spelled them.
func (m *RecordMeta) check(sectionLen int) error {
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
	// add sums every length from the start of the body, and is false for a
	// negative one or a total past int64.
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
		if want := len(m.scripts[m.Headers[s.Header].Script].framing); int(s.scanN) != want {
			return fmt.Errorf("sample %d has %d scan lengths, its script %d scans", i, s.scanN, want)
		}
		for j, n := range m.scanLens(s) {
			if !add(n) {
				return fmt.Errorf("sample %d claims %d bytes of scan %d", i, uint64(n), j)
			}
		}
	}
	return nil
}

// parseRecordFields fills m from the metadata section. It sizes nothing:
// m's slices, and lens and frames, where the samples' scan lengths and the
// scripts' framing lengths are decoded to, come with the room the first
// pass counted (measure). A section that spells more than that — one whose
// fields' wire types disagree with their numbers — only grows them. It
// reads each field by number, whatever wire type it spells: the group
// count a varint; a script, header or sample a length-delimited message.
func parseRecordFields(section []byte, m *RecordMeta, lens, frames []int64) error {
	for d := wire.NewDecoder(section); !d.Done(); {
		field, wtype, err := d.Next()
		if err != nil {
			return err
		}
		var raw []byte
		switch field {
		case fieldNumGroups:
			var v uint64
			v, err = d.Uint64()
			m.NumGroups = int(v)
		case fieldScript, fieldHeader, fieldSample:
			raw, err = d.Bytes()
		default:
			err = d.Skip(wtype)
		}
		if err != nil {
			return err
		}
		switch field {
		case fieldScript:
			from := len(frames)
			if frames, err = appendPacked(frames, raw); err != nil {
				return err
			}
			m.scripts = append(m.scripts, recordScript{framing: frames[from:len(frames):len(frames)]})
		case fieldHeader:
			var h RecordHeader
			if err := parseHeader(raw, &h); err != nil {
				return err
			}
			m.Headers = append(m.Headers, h)
		case fieldSample:
			var sm SampleMeta
			from := len(lens)
			if lens, err = parseSampleMeta(raw, &sm, lens); err != nil {
				return err
			}
			// Each length takes a byte of the section at least, whose own
			// length is a 32-bit word: so does their count.
			sm.scanAt, sm.scanN = uint32(from), uint32(len(lens)-from)
			m.Samples = append(m.Samples, sm)
		}
	}
	m.lens = lens
	return nil
}

// appendPacked appends the varints of a packed field to vs.
func appendPacked(vs []int64, packed []byte) ([]int64, error) {
	for p := wire.NewDecoder(packed); !p.Done(); {
		v, err := p.Uint64()
		if err != nil {
			return vs, err
		}
		vs = append(vs, int64(v))
	}
	return vs, nil
}

// parseHeader fills h from one header message; h.JPEG aliases raw.
func parseHeader(raw []byte, h *RecordHeader) error {
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

// parseSampleMeta fills sm from one sample message, appending its scan
// lengths to lens.
func parseSampleMeta(raw []byte, sm *SampleMeta, lens []int64) ([]int64, error) {
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
			if lens, err = appendPacked(lens, packed); err != nil {
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

// countScanLens counts the scan lengths one sample message spells, walking
// it as parseSampleMeta does, as far as it can.
func countScanLens(raw []byte) int {
	n := 0
	for d := wire.NewDecoder(raw); !d.Done(); {
		field, wtype, err := d.Next()
		if err != nil {
			return n
		}
		switch field {
		case sfScanLens:
			var packed []byte
			if packed, err = d.Bytes(); err == nil {
				n += wire.Varints(packed)
			}
		case sfID, sfLabel, sfHeader:
			_, err = d.Uint64()
		default:
			err = d.Skip(wtype)
		}
		if err != nil {
			return n
		}
	}
	return n
}

// scansAreGroups reports whether s's scan lengths are its group lengths: it
// has as many scans as the record has groups, and each scan of the longest
// script is a group of its own, so each of s's is too.
func (m *RecordMeta) scansAreGroups(s *SampleMeta) bool {
	return int(s.scanN) == m.NumGroups && m.NumGroups == m.maxScans
}

// buildOffsets derives every table from the checked lengths, carving them
// from arena, which the first pass sized for them (recordShape.derived).
func (m *RecordMeta) buildOffsets(arena []int64) {
	ng := m.NumGroups
	carve := func(k int) []int64 {
		if len(arena) < k {
			// Only a section whose fields' wire types misled the first
			// pass gets here.
			arena = make([]int64, k)
		}
		s := arena[:k:k]
		arena = arena[k:]
		return s
	}
	m.prefix, m.preamble = carve(ng+1), carve(ng)
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
	// A sample's group lengths sum its scans group by group. prefix[g+1]
	// runs along group g — its preamble, then every sample's slice — until
	// the end, when it becomes the prefix length.
	copy(m.prefix[1:], m.preamble)
	for i := range m.Samples {
		s := &m.Samples[i]
		if m.scansAreGroups(s) {
			s.GroupLens = m.scanLens(s)
		} else {
			first := m.scripts[m.Headers[s.Header].Script].first
			s.GroupLens = carve(ng)
			g := 0
			for j, l := range m.scanLens(s) {
				for int64(j) >= first[g+1] {
					g++
				}
				s.GroupLens[g] += l
			}
		}
		for g, l := range s.GroupLens {
			m.prefix[g+1] += l
		}
	}
	m.prefix[0] = m.BodyStart
	for g := range ng {
		m.prefix[g+1] += m.prefix[g]
	}
}

// maxSharedStreams bounds a buffer that the streams of one read share
// (spliceAll), so a sample a caller keeps pins at most this much besides
// its own bytes. A stream longer than it gets a buffer of its own.
const maxSharedStreams = 1 << 20

// streamLen is the length of sample i's stream at scan group g: its header,
// the framing of its scans in groups 1..g, their data, and EOI.
func (m *RecordMeta) streamLen(i, g int) int64 {
	s := &m.Samples[i]
	h := &m.Headers[s.Header]
	size := int64(len(h.JPEG)) + 2 + m.scripts[h.Script].framed[g]
	for _, l := range s.GroupLens[:g] {
		size += l
	}
	return size
}

// cursor is where a read finds the pieces of the streams it splices in
// src, a record prefix or a gathered body: scan group k+1's preamble at
// pre[k], and the group's slices one after another from next[k], which
// moves past each slice the read passes. In a prefix every sample's slices
// lie there (all); in a gathered body only the selected samples'.
type cursor struct {
	m         *RecordMeta
	src       []byte
	pre, next []int64
	all       bool
}

// stackGroups is the most scan groups whose cursor a read keeps in an array
// of its own frame; a record of more groups (no writer here makes one)
// allocates it.
const stackGroups = 16

// words returns n words of buf, or n new ones when buf is too short.
func words(buf []int64, n int) []int64 {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]int64, n)
}

// prefixCursor starts a walk of a record prefix at scan group g, in buf
// when it has room: every slice of group k+1 follows its preamble.
func (m *RecordMeta) prefixCursor(prefix []byte, g int, buf []int64) cursor {
	next := words(buf, g)
	for k := range next {
		next[k] = m.prefix[k] + m.preamble[k]
	}
	return cursor{m: m, src: prefix, pre: m.prefix, next: next, all: true}
}

// check refuses sample i at scan group g unless src holds every slice its
// group lengths claim where the cursor stands. A stream is sized by those
// lengths, so they are held to the bytes there are before anything is
// sized or sliced by them.
func (c *cursor) check(i, g int) error {
	for k, l := range c.m.Samples[i].GroupLens[:g] {
		if at := c.next[k]; l < 0 || at < 0 || l > int64(len(c.src))-at {
			return fmt.Errorf("core: %w: sample %d claims %d bytes of scan group %d", ErrCorrupt, i, l, k+1)
		}
	}
	return nil
}

// skip moves the cursor past sample i's slices of groups 1..g.
func (c *cursor) skip(i, g int) {
	for k, l := range c.m.Samples[i].GroupLens[:g] {
		c.next[k] += l
	}
}

// pieces returns scan group k+1's preamble and sample i's slice of it,
// which the cursor stands at, and moves past the slice.
func (c *cursor) pieces(i, k int) (preamble, slice []byte) {
	pre, at := c.pre[k], c.next[k]
	c.next[k] += c.m.Samples[i].GroupLens[k]
	return c.src[pre : pre+c.m.preamble[k]], c.src[at:c.next[k]]
}

// splice appends sample i's stream at scan group g to dst, which the caller
// sized for it (streamLen): its header; for each group, the framing of each
// of its scans there, from the group's preamble, followed by its data of
// that scan, from its slice; then EOI. It takes the pieces where c stands,
// and leaves c past the sample. It is the one place a stream is put
// together: SampleJPEG and SampleJPEGs take the pieces from a record
// prefix, AssembleSamples from a gathered body. The caller has held the
// sample's group lengths to the bytes it has (cursor.check); a slice is
// exactly as long as the sample's scans in its group, which buildOffsets
// summed over the same scans this walks.
func (m *RecordMeta) splice(dst []byte, i, g int, c *cursor) []byte {
	s := &m.Samples[i]
	h := &m.Headers[s.Header]
	sc := &m.scripts[h.Script]
	dst = append(dst, h.JPEG...)
	scanLens, framing, at, first := m.scanLens(s), sc.framing, sc.at, sc.first
	for k := range g {
		pre, slice := c.pieces(i, k)
		for j := first[k]; j < first[k+1]; j++ {
			n := scanLens[j]
			dst = append(dst, pre[at[j]:at[j]+framing[j]]...)
			dst = append(dst, slice[:n]...)
			slice = slice[n:]
		}
	}
	return append(dst, 0xFF, 0xD9) // EOI
}

// StreamBuffers gives a read's splice (SampleJPEGs, AssembleSamples) the
// buffer its next streams go into: an empty slice with room for at least n
// bytes. The streams one buffer holds are consecutive in sample order, and
// the splice asks for the next buffer only once the stream at hand does not
// fit in what is left of this one. A nil StreamBuffers makes each buffer
// exactly n bytes long, the caller's to keep.
type StreamBuffers func(n int64) []byte

// exactly is the nil StreamBuffers: a new buffer of exactly n bytes.
func exactly(n int64) []byte { return make([]byte, 0, n) }

// spliceAll splices, in sample order, the samples sel selects (every one
// when sel is nil) past the first from of them at scan group g, from where
// c stands, into buffers from bufs, and hands each to deliver with its
// index. It steps over an unselected sample's slices only where c walks a
// prefix: a gathered body holds none. The streams share buffers, each asked
// for exactly as long as the consecutive streams it is to hold and at most
// maxSharedStreams unless it holds one longer stream alone; each stream is
// a full slice expression of its buffer, so appending to it never writes
// into the next.
func (m *RecordMeta) spliceAll(c *cursor, g int, sel []bool, from int, bufs StreamBuffers, deliver func(i int, stream []byte)) {
	if bufs == nil {
		bufs = exactly
	}
	var buf []byte
	for i := range m.Samples {
		if sel != nil && !sel[i] {
			if c.all {
				c.skip(i, g)
			}
			continue
		}
		if from > 0 {
			from--
			c.skip(i, g)
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
				if size+l > maxSharedStreams {
					break
				}
				size += l
			}
			buf = bufs(size)
		}
		start := len(buf)
		buf = m.splice(buf, i, g, c)
		deliver(i, buf[start:len(buf):len(buf)])
	}
}

// checkPrefix refuses a scan group the record does not store and a prefix
// too short for it.
func (m *RecordMeta) checkPrefix(prefix []byte, g int) error {
	if g < 1 || g > m.NumGroups {
		return fmt.Errorf("core: scan group %d out of range [1,%d]", g, m.NumGroups)
	}
	if need := m.prefix[g]; int64(len(prefix)) < need {
		return fmt.Errorf("core: prefix has %d bytes, scan group %d needs %d", len(prefix), g, need)
	}
	return nil
}

// SampleJPEG reassembles sample i as a decodable JPEG stream at scan group
// g: its header, the framing and its data of every scan in groups 1..g, and
// a terminating EOI. prefix must hold at least PrefixLen(g) bytes of the
// record file. The stream is a buffer of its own, exactly its length. Its
// slices are found past those of every sample before it.
func (m *RecordMeta) SampleJPEG(prefix []byte, i, g int) ([]byte, error) {
	if i < 0 || i >= len(m.Samples) {
		return nil, fmt.Errorf("core: sample %d out of range", i)
	}
	if err := m.checkPrefix(prefix, g); err != nil {
		return nil, err
	}
	var row [stackGroups]int64
	c := m.prefixCursor(prefix, g, row[:])
	for j := range i {
		c.skip(j, g)
	}
	if err := c.check(i, g); err != nil {
		return nil, err
	}
	return m.splice(make([]byte, 0, m.streamLen(i, g)), i, g, &c), nil
}

// SampleJPEGs reassembles, as SampleJPEG does, the samples sel selects
// (every sample when sel is nil) past the first from of them — what one
// record read delivers — and hands each to deliver with its index, in
// sample order. The streams share buffers from bufs of at most 1 MiB (a
// longer stream has its own; a nil bufs makes them exactly sized), none of
// them prefix; appending to one stream never changes another. Nothing is
// delivered unless every selected sample checks out.
func (m *RecordMeta) SampleJPEGs(prefix []byte, g int, sel []bool, from int, bufs StreamBuffers, deliver func(i int, stream []byte)) error {
	if sel != nil && len(sel) != len(m.Samples) {
		return fmt.Errorf("core: selection has %d entries, record has %d samples", len(sel), len(m.Samples))
	}
	if err := m.checkPrefix(prefix, g); err != nil {
		return err
	}
	var row [stackGroups]int64
	c := m.prefixCursor(prefix, g, row[:])
	for i := range m.Samples {
		if sel == nil || sel[i] {
			if err := c.check(i, g); err != nil {
				return err
			}
		}
		c.skip(i, g)
	}
	c = m.prefixCursor(prefix, g, row[:])
	m.spliceAll(&c, g, sel, from, bufs, deliver)
	return nil
}
