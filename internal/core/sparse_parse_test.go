package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wire"
)

// entryOf is the index entry a dataset writer keeps for a parsed record.
func entryOf(m *RecordMeta) *RecordInfo {
	re := &RecordInfo{Name: "record", Samples: len(m.Samples), Prefixes: slices.Clone(m.prefix)}
	for _, s := range m.Samples {
		re.SampleIDs = append(re.SampleIDs, s.ID)
		re.SampleLabels = append(re.SampleLabels, s.Label)
		re.SampleGroupLens = append(re.SampleGroupLens, s.GroupLens...)
	}
	return re
}

// widened is the metadata section of meta's record respelled with n
// samples, sample i a copy of sample i%len(meta.Samples) numbered i: a
// record of any size whose metadata parses as a writer's would. Only the
// section is returned; a parse reads nothing past it.
func widened(t testing.TB, data []byte, meta *RecordMeta, n int) ([]byte, *RecordInfo) {
	t.Helper()
	wide := *meta
	wide.Samples = make([]SampleMeta, n)
	for i := range wide.Samples {
		wide.Samples[i] = meta.Samples[i%len(meta.Samples)]
		wide.Samples[i].ID = int64(i)
	}
	spelled := respell(data, &wide, false, false)
	full, err := ParseRecordMeta(spelled)
	if err != nil {
		t.Fatal(err)
	}
	return spelled[:full.BodyStart], entryOf(full)
}

// selectionOf selects samples at, of a record of n.
func selectionOf(n int, at ...int) []bool {
	sel := make([]bool, n)
	for _, i := range at {
		sel[i] = true
	}
	return sel
}

// BenchmarkParseRecordPrefix parses a record's metadata as a read does,
// against its index entry and into the RecordMeta of the read before: in
// full, as a whole-prefix read does, and for the three samples a sparse
// read delivers, on records of 32 and of 1 024 samples (the paper's size).
// An op is one parse.
func BenchmarkParseRecordPrefix(b *testing.B) {
	data, meta := writeTestRecord(b, buildSamples(b, 32))
	for _, n := range []int{32, 1024} {
		section, re := widened(b, data, meta, n)
		for _, read := range []struct {
			name string
			sel  []bool
		}{{"full", nil}, {"sparse", selectionOf(n, 3, 14, 29)}} {
			b.Run(fmt.Sprintf("%s/samples=%d", read.name, n), func(b *testing.B) {
				b.ReportAllocs()
				m := new(RecordMeta)
				for range b.N {
					if err := re.parse(m, 0, section, read.sel, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// parsed is re's parse, as record 0, of data into a new RecordMeta.
func parsed(re *RecordInfo, data []byte, sel []bool, from int) (*RecordMeta, error) {
	m := new(RecordMeta)
	if err := re.parse(m, 0, data, sel, from); err != nil {
		return nil, err
	}
	return m, nil
}

// parseBytes is the bytes one call of parse allocates: the least of three
// averages over runs calls, each on one P after a warm-up. TotalAlloc
// counts every allocation, not a sample of them.
func parseBytes(parse func()) uint64 {
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for range 3 {
		parse()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			parse()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return least
}

// TestSparseParseAllocationsFlat: a parse for the three samples a sparse
// read delivers allocates the same bytes whether the record holds 32, 256
// or 1 024 samples — nothing it allocates is sized by a sample it does not
// deliver — and fewer than a full parse of the 32-sample record.
func TestSparseParseAllocationsFlat(t *testing.T) {
	data, meta := writeTestRecord(t, buildSamples(t, 32))
	full := parseBytes(func() {
		if _, err := ParseRecordMeta(data); err != nil {
			t.Fatal(err)
		}
	})
	var sizes []uint64
	for _, n := range []int{32, 256, 1024} {
		section, re := widened(t, data, meta, n)
		sel := selectionOf(n, 3, 14, 29)
		sizes = append(sizes, parseBytes(func() {
			if _, err := parsed(re, section, sel, 0); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("a full parse of 32 samples allocates %d bytes; a 3-sample sparse parse of 32, 256 and 1 024 samples %v", full, sizes)
	if sizes[1] != sizes[0] || sizes[2] != sizes[0] {
		t.Errorf("a 3-sample sparse parse allocates %v bytes on records of 32, 256 and 1 024 samples; want the same", sizes)
	}
	if sizes[0] >= full {
		t.Errorf("a 3-sample sparse parse allocates %d bytes, a full parse %d", sizes[0], full)
	}
}

// TestSparseParseRefusesAsFullParse: every way check and the index
// agreement refuse a record, placed in a sample the read does not deliver
// — before the delivered ones, between them, after them, and inside the
// resume prefix — is refused by the sparse parse as ErrCorrupt as the full
// parse refuses it, and the record's own spelling passes both. What check
// refuses is refused by the parse alone, before the index agreement, which
// would refuse most of it too.
func TestSparseParseRefusesAsFullParse(t *testing.T) {
	data, meta := writeTestRecord(t, buildSamples(t, 8))
	re := entryOf(meta)
	// The read delivers samples 3 and 6, resumed past sample 1.
	sel, from := selectionOf(8, 1, 3, 6), 1
	// spell is the record with sample i changed by damage.
	spell := func(i int, damage func(m *RecordMeta, i int)) []byte {
		m := *meta
		m.Samples = slices.Clone(meta.Samples)
		m.lens = slices.Clone(meta.lens)
		damage(&m, i)
		return respell(data, &m, false, false)
	}
	scan := func(j int, n int64) func(m *RecordMeta, i int) {
		return func(m *RecordMeta, i int) { m.scanLens(&m.Samples[i])[j] = n }
	}
	cases := map[string]func(m *RecordMeta, i int){
		"header out of range": func(m *RecordMeta, i int) { m.Samples[i].Header = len(m.Headers) },
		"negative header":     func(m *RecordMeta, i int) { m.Samples[i].Header = -1 },
		"a scan length short": func(m *RecordMeta, i int) { m.Samples[i].scanN-- },
		"a scan length over": func(m *RecordMeta, i int) {
			s := &m.Samples[i]
			m.lens = append(append(m.lens, m.scanLens(s)...), 1)
			s.scanAt, s.scanN = uint32(len(m.lens))-s.scanN-1, s.scanN+1
		},
		"negative length":  scan(2, -1),
		"total past int64": scan(2, math.MaxInt64),
		// Two lengths that each fit and together do not, the other in
		// the next sample, which the read does not deliver either.
		"a length past another": func(m *RecordMeta, i int) {
			scan(2, math.MaxInt64/2+1)(m, i)
			scan(2, math.MaxInt64/2)(m, map[int]int{0: 1, 1: 2, 2: 4, 5: 7, 7: 0}[i])
		},
	}
	for _, i := range []int{0, 1, 2, 5, 7} {
		for name, damage := range cases {
			t.Run(fmt.Sprintf("%s/sample=%d", name, i), func(t *testing.T) {
				spelled := spell(i, damage)
				_, fullErr := ParseRecordMeta(spelled)
				_, sparseErr := parseRecordMeta(spelled, deliveryOf(sel, from))
				if !errors.Is(fullErr, ErrCorrupt) || !errors.Is(sparseErr, ErrCorrupt) {
					t.Fatalf("the full parse says %v, the sparse parse %v; want ErrCorrupt from both", fullErr, sparseErr)
				}
			})
		}
		// A length the index entry does not sum to: check passes it, the
		// index agreement refuses it.
		spelled := spell(i, scan(4, meta.scanLens(&meta.Samples[i])[4]+1))
		_, fullErr := parsed(re, spelled, nil, 0)
		_, sparseErr := parsed(re, spelled, sel, from)
		if !errors.Is(fullErr, ErrCorrupt) || !errors.Is(sparseErr, ErrCorrupt) {
			t.Errorf("sample %d claims another length: the full parse says %v, the sparse parse %v; want ErrCorrupt from both", i, fullErr, sparseErr)
		}
	}
	// The sample count: a sample too many, or too few, for the index entry.
	extra := *meta
	extra.Samples = append(slices.Clone(meta.Samples), meta.Samples[0])
	fewer := *meta
	fewer.Samples = meta.Samples[:7]
	for name, m := range map[string]*RecordMeta{"a sample too many": &extra, "a sample too few": &fewer} {
		spelled := respell(data, m, false, false)
		_, fullErr := parsed(re, spelled, nil, 0)
		_, sparseErr := parsed(re, spelled, sel, from)
		if !errors.Is(fullErr, ErrCorrupt) || !errors.Is(sparseErr, ErrCorrupt) {
			t.Errorf("%s: the full parse says %v, the sparse parse %v; want ErrCorrupt from both", name, fullErr, sparseErr)
		}
	}
	// Wire-level damage inside a sample message the read does not deliver:
	// a varint cut short.
	for _, i := range []int{0, 1, 5} {
		spelled := withSampleMessage(t, data, meta, i, []byte{sfID << 3, 0x80})
		_, fullErr := parsed(re, spelled, nil, 0)
		_, sparseErr := parsed(re, spelled, sel, from)
		if !errors.Is(fullErr, ErrCorrupt) || !errors.Is(sparseErr, ErrCorrupt) {
			t.Errorf("sample %d's message cut: the full parse says %v, the sparse parse %v; want ErrCorrupt from both", i, fullErr, sparseErr)
		}
	}
	for name, spelled := range map[string][]byte{
		"the record as written": data,
		"respelled":             respell(data, meta, false, false),
		"rewalked":              withSampleMessage(t, data, meta, -1, nil),
	} {
		if _, err := parsed(re, spelled, nil, 0); err != nil {
			t.Fatalf("%s, in full: %v", name, err)
		}
		if _, err := parsed(re, spelled, sel, from); err != nil {
			t.Fatalf("%s, sparse: %v", name, err)
		}
	}
}

// withSampleMessage is the record with sample i's message replaced by raw,
// every other field written back as walkFields reads it.
func withSampleMessage(t *testing.T, data []byte, meta *RecordMeta, i int, raw []byte) []byte {
	t.Helper()
	enc := wire.NewEncoder(nil)
	n := 0
	err := walkFields(data[8:meta.BodyStart], func(field int, v uint64, msg []byte) error {
		switch {
		case field == fieldNumGroups:
			enc.Uint64(field, v)
		case field == fieldSample && n == i:
			enc.Bytes(field, raw)
		default:
			enc.Bytes(field, msg)
		}
		if field == fieldSample {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	section := enc.Encode()
	out := append([]byte(nil), Magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(section)))
	out = append(out, section...)
	return append(out, data[meta.BodyStart:]...)
}

// fuzzCorpus returns the inputs kept in testdata/fuzz/<target>, each a
// single []byte argument.
func fuzzCorpus(t testing.TB, target string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		_, arg, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		if !ok || !strings.HasPrefix(arg, "[]byte(") {
			t.Fatalf("%s: not a one-argument corpus file", name)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzParseRecordPrefix holds the parse a sparse read makes — kept entries
// for the samples a selection delivers past a resume prefix, no entry for
// any other — to the full parse of the same bytes against the same index
// entry: the record's own, when the full parse accepts the bytes, and the
// seed record's. The sparse parse errs exactly when the full parse does,
// and so does the parse alone, before the index agreement, given a
// selection of the record's size. Where both accept, every delivered sample's ID, label, header and group
// lengths are the full parse's, and AssembleSamples, given the body the
// selection gathers, yields byte for byte the streams SampleJPEGs splices
// from the prefix. The seeds are FuzzParseRecordMeta's, its testdata
// included, under two selections.
func FuzzParseRecordPrefix(f *testing.F) {
	var buf bytes.Buffer
	meta, err := WriteRecord(&buf, buildSamples(f, 3))
	if err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	seed := entryOf(meta)
	seeds := [][]byte{
		valid,
		valid[:meta.BodyStart/2],
		valid[:(meta.BodyStart+int64(len(valid)))/2],
		respell(valid, meta, true, false),
		respell(valid, meta, false, true),
	}
	for _, data := range append(seeds, fuzzCorpus(f, "FuzzParseRecordMeta")...) {
		f.Add(data, uint64(0b101), uint8(0))
		f.Add(data, uint64(0b110), uint8(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, mask uint64, from uint8) {
		entries := []*RecordInfo{seed}
		own, ownErr := ParseRecordMeta(data)
		if ownErr == nil {
			entries = append(entries, entryOf(own))
		}
		for k, re := range entries {
			sel := make([]bool, re.Samples)
			for i := range sel {
				sel[i] = mask>>(i%64)&1 == 1
			}
			// The parse alone, before the index agreement: the sparse one
			// errs wherever the full one does, and, given a selection of
			// the record's size, nowhere else.
			if _, err := parseRecordMeta(data, deliveryOf(sel, int(from))); own == nil && err == nil ||
				own != nil && len(sel) == own.count && err != nil {
				t.Fatalf("entry %d: the full parse alone says %v, the sparse parse alone %v", k, ownErr, err)
			}
			full, fullErr := parsed(re, data, nil, 0)
			sparse, sparseErr := parsed(re, data, sel, int(from))
			if (fullErr == nil) != (sparseErr == nil) {
				t.Fatalf("entry %d: the full parse says %v, the sparse parse %v", k, fullErr, sparseErr)
			}
			if fullErr != nil {
				if !errors.Is(sparseErr, ErrCorrupt) {
					t.Fatalf("entry %d: the sparse parse refused with %v, which is not ErrCorrupt", k, sparseErr)
				}
				continue
			}
			kept := deliveryOf(sel, int(from))
			delivers := 0
			for i, on := range sel {
				if on && i >= kept.start {
					delivers++
				}
			}
			if len(sparse.Samples) != delivers || !slices.Equal(sparse.prefix, full.prefix) {
				t.Fatalf("entry %d: %d entries for %d delivered samples; prefix lengths %v, the full parse's %v",
					k, len(sparse.Samples), delivers, sparse.prefix, full.prefix)
			}
			for e := range sparse.Samples {
				got, want := &sparse.Samples[e], &full.Samples[kept.index(e)]
				if got.ID != want.ID || got.Label != want.Label || got.Header != want.Header || !slices.Equal(got.GroupLens, want.GroupLens) {
					t.Fatalf("entry %d: delivered sample %d is %+v, the full parse's %+v", k, kept.index(e), *got, *want)
				}
			}
			if k == 0 && len(entries) > 1 {
				// The seed's side index need not be the record's: gather
				// by the record's own entry.
				continue
			}
			for g := 1; g <= full.NumGroups && full.prefix[g] <= int64(len(data)); g++ {
				ranges, err := re.SampleRanges(g, sel)
				if err != nil {
					t.Fatal(err)
				}
				body, err := GatherRanges(nil, data, ranges)
				if err != nil {
					t.Fatal(err)
				}
				got := collect(func(deliver func(int, []byte)) error {
					return sparse.AssembleSamples(body, g, nil, func(e int, s []byte) { deliver(kept.index(e), s) })
				})
				want := collect(func(deliver func(int, []byte)) error {
					return full.SampleJPEGs(data[:full.prefix[g]], g, sel, int(from), nil, deliver)
				})
				if !got.equal(want) {
					t.Fatalf("entry %d group %d: gathered read delivers %v, %v; the prefix read %v, %v", k, g, got.samples, got.err, want.samples, want.err)
				}
			}
		}
	})
}
