// Package core implements Progressive Compressed Records (PCRs), the
// paper's storage format. A PCR file stores a batch of progressively
// compressed images rearranged by scan group: first a metadata section
// (labels, per-image JPEG headers, and the offset table), then scan group 1
// of every image, then scan group 2 of every image, and so on.
//
// Reading the file prefix up to scan group k therefore yields every image in
// the record at quality level k with one sequential read. Reading all groups
// costs the same bytes as the conventional JPEG dataset (±5%), so the layout
// adds no space overhead — the paper's key property.
package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"image"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/jpegc"
	"repro/internal/wire"
)

// Magic identifies a PCR record file.
var Magic = [4]byte{'P', 'C', 'R', '1'}

// ErrCorrupt reports a structurally damaged record: a truncated prefix read,
// a bad magic number, or a metadata section that does not parse. It is
// distinguishable with errors.Is from transient I/O errors, which are
// returned unwrapped. The public pcr package re-exports it as pcr.ErrCorrupt.
var ErrCorrupt = errors.New("corrupt record")

// Sample is one labeled encoded image handed to the record writer. JPEG may
// be baseline or progressive; baseline inputs are losslessly transcoded.
type Sample struct {
	ID    int64
	Label int64
	JPEG  []byte
}

// SampleMeta describes one image inside a record: its identity, its JPEG
// header bytes (SOI through SOF — everything before the first scan), and
// the byte length of each of its scan groups.
type SampleMeta struct {
	ID        int64
	Label     int64
	Header    []byte
	GroupLens []int64
}

// RecordMeta is the parsed metadata section of a PCR file plus derived
// offset tables.
type RecordMeta struct {
	NumGroups int
	Samples   []SampleMeta

	// BodyStart is the file offset where scan group 1 begins.
	BodyStart int64
	// groupSize[g-1] is the total byte length of scan group g.
	groupSize []int64
	// sampleOffset[(g-1)*len(Samples)+i] is the offset of sample i's slice
	// within group g.
	sampleOffset []int64
}

// PrefixLen returns the number of bytes that must be read from the start of
// the record file to materialize every image at scan group g. Group 0 means
// metadata only.
func (m *RecordMeta) PrefixLen(g int) (int64, error) {
	if g < 0 || g > m.NumGroups {
		return 0, fmt.Errorf("core: scan group %d out of range [0,%d]", g, m.NumGroups)
	}
	n := m.BodyStart
	for k := 1; k <= g; k++ {
		n += m.groupSize[k-1]
	}
	return n, nil
}

// TotalLen returns the full record file size.
func (m *RecordMeta) TotalLen() int64 {
	n, _ := m.PrefixLen(m.NumGroups)
	return n
}

// Field numbers for the record metadata wire message.
const (
	fieldNumGroups = 1
	fieldSample    = 2

	sfID        = 1
	sfLabel     = 2
	sfHeader    = 3
	sfGroupLens = 4
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

// prepared is one sample ready to be laid out: its metadata entry and its
// scan bytes, scans[k] belonging to scan group k+1.
type prepared struct {
	meta  SampleMeta
	scans [][]byte
}

// prepare indexes a sample's scans, transcoding it to progressive form
// first if it is not.
func prepare(s Sample) (prepared, error) {
	data := s.JPEG
	idx, err := jpegc.IndexScans(data)
	if err != nil {
		return prepared{}, fmt.Errorf("core: sample %d: %w", s.ID, err)
	}
	if !idx.Progressive {
		data, err = jpegc.Transcode(data, &jpegc.Options{Progressive: true})
		if err != nil {
			return prepared{}, fmt.Errorf("core: sample %d: transcode: %w", s.ID, err)
		}
		idx, err = jpegc.IndexScans(data)
		if err != nil {
			return prepared{}, fmt.Errorf("core: sample %d: %w", s.ID, err)
		}
	}
	p := prepared{
		meta:  SampleMeta{ID: s.ID, Label: s.Label, Header: append([]byte(nil), data[:idx.HeaderLen]...)},
		scans: make([][]byte, len(idx.Scans)),
	}
	for k, sc := range idx.Scans {
		p.scans[k] = data[sc.Offset : sc.Offset+sc.Length]
	}
	return p, nil
}

// prepareAll prepares every sample, on as many goroutines as there are
// processors to run them: the transcode is all of an ingest's CPU time and
// the samples of a record are independent. Results are placed by index, so
// the record does not depend on the schedule, and when samples fail the
// error is that of the first one in record order.
func prepareAll(samples []Sample) ([]prepared, error) {
	preps := make([]prepared, len(samples))
	errs := make([]error, len(samples))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(samples)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(samples); i = int(next.Add(1)) - 1 {
				preps[i], errs[i] = prepare(samples[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return preps, nil
}

// WriteRecordOpts is WriteRecord with layout options. It hands w the record
// in a few large writes.
func WriteRecordOpts(w io.Writer, samples []Sample, opts *RecordOptions) (*RecordMeta, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: empty record")
	}
	preps, err := prepareAll(samples)
	if err != nil {
		return nil, err
	}
	numGroups := 0
	for i := range preps {
		numGroups = max(numGroups, len(preps[i].scans))
	}

	// Coalesce scans into the requested number of scan groups. Scan s
	// (0-based, of numGroups total) lands in bucket s*k/numGroups, so the
	// buckets are contiguous scan ranges and grayscale images (fewer scans)
	// stay aligned with color ones.
	if k := optScanGroups(opts); k > 0 && k < numGroups {
		for i := range preps {
			grouped := make([][]byte, k)
			for s, scan := range preps[i].scans {
				g := s * k / numGroups
				grouped[g] = append(grouped[g], scan...)
			}
			preps[i].scans = grouped
		}
		numGroups = k
	}

	// Metadata section, and the parsed form of it that is returned.
	m := &RecordMeta{NumGroups: numGroups, Samples: make([]SampleMeta, len(preps))}
	enc := wire.NewEncoder(nil)
	enc.Uint64(fieldNumGroups, uint64(numGroups))
	lens := make([]uint64, numGroups)
	for i := range preps {
		p := &preps[i]
		p.meta.GroupLens = make([]int64, numGroups)
		for g := range lens {
			lens[g] = 0
			if g < len(p.scans) {
				lens[g] = uint64(len(p.scans[g]))
			}
			p.meta.GroupLens[g] = int64(lens[g])
		}
		sub := wire.NewEncoder(nil)
		sub.Uint64(sfID, uint64(p.meta.ID))
		sub.Int64(sfLabel, p.meta.Label)
		sub.Bytes(sfHeader, p.meta.Header)
		sub.PackedUint64(sfGroupLens, lens)
		enc.Bytes(fieldSample, sub.Encode())
		m.Samples[i] = p.meta
	}
	meta := enc.Encode()
	m.BodyStart = int64(8 + len(meta))
	m.buildOffsets()

	bw := bufio.NewWriterSize(w, recordWriteBuffer)
	var hdr [8]byte
	copy(hdr[0:4], Magic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(meta)))
	bw.Write(hdr[:])
	bw.Write(meta)
	// Body: scan groups in order; within a group, samples in order.
	for g := 0; g < numGroups; g++ {
		for i := range preps {
			if g < len(preps[i].scans) {
				bw.Write(preps[i].scans[g])
			}
		}
	}
	// A failed write sticks to bw: Flush reports the first one.
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return m, nil
}

// recordWriteBuffer is the size of the writes WriteRecordOpts issues: a
// record of 32 photographs goes out in a handful instead of one per sample
// and scan group.
const recordWriteBuffer = 64 << 10

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
// The returned RecordMeta aliases data — every sample's Header is a slice of
// it — so it is valid for as long as data is left unmodified.
func ParseRecordMeta(data []byte) (*RecordMeta, error) {
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
	m := &RecordMeta{BodyStart: int64(8 + metaLen)}
	// Any wire-level decode failure inside the metadata section is
	// structural damage, so the whole parse reports as ErrCorrupt.
	lens, err := parseRecordFields(data[8:8+metaLen], m)
	if err != nil {
		return nil, fmt.Errorf("core: %w: metadata: %w", ErrCorrupt, err)
	}
	if m.NumGroups <= 0 {
		return nil, fmt.Errorf("core: %w: record has no scan groups", ErrCorrupt)
	}
	// No writer makes an empty record, and without a sample to hold it to,
	// NumGroups — which sizes the offset table — would be any number the
	// file cares to spell.
	if len(m.Samples) == 0 {
		return nil, fmt.Errorf("core: %w: record has no samples", ErrCorrupt)
	}
	// Each sample's GroupLens so far only counts the lengths it spelled (the
	// group count may follow the samples); now that every count can be held
	// to NumGroups, slice them out of the one array they were decoded into.
	for i := range m.Samples {
		s := &m.Samples[i]
		if len(s.GroupLens) != m.NumGroups {
			return nil, fmt.Errorf("core: %w: sample %d has %d group lengths, want %d", ErrCorrupt, i, len(s.GroupLens), m.NumGroups)
		}
		s.GroupLens = lens[i*m.NumGroups : (i+1)*m.NumGroups : (i+1)*m.NumGroups]
	}
	// The slice lengths become offsets into the file: none may be negative
	// and their running sum must stay an int64, or SampleJPEG would index
	// before the start of the prefix it is given.
	total := m.BodyStart
	for k, n := range lens {
		if n < 0 || total+n < total {
			return nil, fmt.Errorf("core: %w: sample %d claims %d bytes of scan group %d", ErrCorrupt, k/m.NumGroups, uint64(n), k%m.NumGroups+1)
		}
		total += n
	}
	m.buildOffsets()
	return m, nil
}

// parseRecordFields fills m from the metadata section and returns every
// sample's group lengths in one array, sample after sample; until the caller
// has checked the counts, Samples[i].GroupLens is only as long as the lengths
// sample i spelled. Nothing is sized by a number the section merely spells:
// Samples by the sample fields present, the array by the bytes present.
func parseRecordFields(section []byte, m *RecordMeta) (lens []int64, err error) {
	n := 0
	for d := wire.NewDecoder(section); !d.Done(); {
		field, wtype, err := d.Next()
		if err != nil {
			return nil, err
		}
		if field == fieldSample {
			n++
		}
		if err := d.Skip(wtype); err != nil {
			return nil, err
		}
	}
	m.Samples = make([]SampleMeta, 0, n)
	d := wire.NewDecoder(section)
	for !d.Done() {
		field, wtype, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch field {
		case fieldNumGroups:
			v, err := d.Uint64()
			if err != nil {
				return nil, err
			}
			m.NumGroups = int(v)
		case fieldSample:
			raw, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			var sm SampleMeta
			from := len(lens)
			if lens, err = parseSampleMeta(raw, &sm, lens); err != nil {
				return nil, err
			}
			sm.GroupLens = lens[from:]
			m.Samples = append(m.Samples, sm)
			if len(m.Samples) == 1 {
				// A writer gives every sample as many lengths as the first;
				// a length is at least a byte of the section.
				lens = slices.Grow(lens, min((n-1)*len(lens), len(section)))
			}
		default:
			if err := d.Skip(wtype); err != nil {
				return nil, err
			}
		}
	}
	return lens, nil
}

// parseSampleMeta fills sm from one sample message, appending its group
// lengths to lens. sm.Header aliases raw.
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
			if sm.Header, err = d.Bytes(); err != nil {
				return lens, err
			}
		case sfGroupLens:
			packed, err := d.Bytes()
			if err != nil {
				return lens, err
			}
			for p := wire.NewDecoder(packed); !p.Done(); {
				v, err := p.Uint64()
				if err != nil {
					return lens, err
				}
				lens = append(lens, int64(v))
			}
		default:
			if err := d.Skip(wtype); err != nil {
				return lens, err
			}
		}
	}
	return lens, nil
}

// buildOffsets derives the offset tables from the samples' group lengths, in
// one allocation.
func (m *RecordMeta) buildOffsets() {
	n := len(m.Samples)
	table := make([]int64, m.NumGroups*(n+1))
	m.groupSize, m.sampleOffset = table[:m.NumGroups:m.NumGroups], table[m.NumGroups:]
	for g := 0; g < m.NumGroups; g++ {
		var off int64
		for i := range m.Samples {
			m.sampleOffset[g*n+i] = off
			off += m.Samples[i].GroupLens[g]
		}
		m.groupSize[g] = off
	}
}

// SampleJPEG reassembles sample i as a decodable JPEG stream at scan group
// g: its header, its slices of groups 1..g, and a terminating EOI. prefix
// must hold at least PrefixLen(g) bytes of the record file.
func (m *RecordMeta) SampleJPEG(prefix []byte, i, g int) ([]byte, error) {
	if i < 0 || i >= len(m.Samples) {
		return nil, fmt.Errorf("core: sample %d out of range", i)
	}
	if g < 1 || g > m.NumGroups {
		return nil, fmt.Errorf("core: scan group %d out of range [1,%d]", g, m.NumGroups)
	}
	need, err := m.PrefixLen(g)
	if err != nil {
		return nil, err
	}
	if int64(len(prefix)) < need {
		return nil, fmt.Errorf("core: prefix has %d bytes, scan group %d needs %d", len(prefix), g, need)
	}
	s := &m.Samples[i]
	// The stream is allocated once, at its size: header, slices, EOI. The
	// lengths come from the record file, so they are held to the bytes there
	// are before anything is sized by them.
	body := 0
	for k, n := range s.GroupLens[:g] {
		if n < 0 || n > int64(len(prefix)-body) {
			return nil, fmt.Errorf("core: %w: sample %d claims %d bytes of scan group %d", ErrCorrupt, i, n, k+1)
		}
		body += int(n)
	}
	out := make([]byte, 0, len(s.Header)+body+2)
	out = append(out, s.Header...)
	groupStart := m.BodyStart
	for k := 0; k < g; k++ {
		off := groupStart + m.sampleOffset[k*len(m.Samples)+i]
		out = append(out, prefix[off:off+s.GroupLens[k]]...)
		groupStart += m.groupSize[k]
	}
	out = append(out, 0xFF, 0xD9) // EOI
	return out, nil
}

// DecodeSample reassembles and decodes sample i at scan group g.
func (m *RecordMeta) DecodeSample(prefix []byte, i, g int) (image.Image, error) {
	stream, err := m.SampleJPEG(prefix, i, g)
	if err != nil {
		return nil, err
	}
	img, err := jpegc.Decode(stream)
	if err != nil {
		return nil, fmt.Errorf("core: sample %d at group %d: %w", i, g, err)
	}
	return img, nil
}
