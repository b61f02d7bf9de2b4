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
// whole prefix or gathered body alike: against its index entry and into
// the RecordMeta of the read before, on records of 32 and of 1 024 samples
// (the paper's size). An op is one parse.
func BenchmarkParseRecordPrefix(b *testing.B) {
	data, meta := writeTestRecord(b, buildSamples(b, 32))
	for _, n := range []int{32, 1024} {
		section, re := widened(b, data, meta, n)
		b.Run(fmt.Sprintf("full/samples=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			m := new(RecordMeta)
			for range b.N {
				if err := re.parse(m, 0, section); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// parsed is re's parse, as record 0, of data into a new RecordMeta.
func parsed(re *RecordInfo, data []byte) (*RecordMeta, error) {
	m := new(RecordMeta)
	if err := re.parse(m, 0, data); err != nil {
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

// TestReusedParseAllocatesNothing: a parse into a RecordMeta that last
// parsed a record of the same shape, and was Reset since, as a reader's
// metas are from read to read, allocates nothing — from a whole prefix and
// from the body a sparse read of three samples gathers, on records of 32,
// 256 and 1 024 samples. So a sparse read, whose parse keeps every
// sample's entry, pays nothing for the samples it does not deliver.
func TestReusedParseAllocatesNothing(t *testing.T) {
	data, meta := writeTestRecord(t, buildSamples(t, 32))
	for _, n := range []int{32, 256, 1024} {
		section, re := widened(t, data, meta, n)
		// The record's bytes: its metadata section, then a body that no
		// parse reads.
		prefix := make([]byte, re.Prefixes[meta.NumGroups])
		copy(prefix, section)
		ranges, err := re.SampleRanges(meta.NumGroups, selectionOf(n, 3, 14, 29))
		if err != nil {
			t.Fatal(err)
		}
		body, err := GatherRanges(nil, prefix, ranges)
		if err != nil {
			t.Fatal(err)
		}
		m := new(RecordMeta)
		for _, read := range []struct {
			name string
			src  []byte
		}{{"whole prefix", prefix}, {"gathered body", body}} {
			got := parseBytes(func() {
				if err := re.parse(m, 0, read.src); err != nil {
					t.Fatal(err)
				}
				m.Reset()
			})
			if got != 0 {
				t.Errorf("%d samples, %s: a parse into a reused RecordMeta allocates %d bytes, want 0", n, read.name, got)
			}
		}
	}
}

// TestSparseParseRefusesAsFullParse: a sparse read parses the metadata
// section at the head of its gathered body as a whole-prefix read parses
// its prefix's, with every sample's entry, so each way check and the index
// agreement refuse a record — placed in the first sample, the last, or one
// between — is refused by ParseRecordPrefix as ErrCorrupt, and the record's
// own spelling passes. What check refuses is refused by the parse alone,
// before the index agreement, which would refuse most of it too.
func TestSparseParseRefusesAsFullParse(t *testing.T) {
	data, meta := writeTestRecord(t, buildSamples(t, 8))
	re := entryOf(meta)
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
		// another sample.
		"a length past another": func(m *RecordMeta, i int) {
			scan(2, math.MaxInt64/2+1)(m, i)
			scan(2, math.MaxInt64/2)(m, map[int]int{0: 1, 1: 2, 2: 4, 5: 7, 7: 0}[i])
		},
	}
	for _, i := range []int{0, 1, 2, 5, 7} {
		for name, damage := range cases {
			t.Run(fmt.Sprintf("%s/sample=%d", name, i), func(t *testing.T) {
				spelled := spell(i, damage)
				_, aloneErr := ParseRecordMeta(spelled)
				_, err := parsed(re, spelled)
				if !errors.Is(aloneErr, ErrCorrupt) || !errors.Is(err, ErrCorrupt) {
					t.Fatalf("the parse alone says %v, against the index entry %v; want ErrCorrupt from both", aloneErr, err)
				}
			})
		}
		// A length the index entry does not sum to: check passes it, the
		// index agreement refuses it.
		spelled := spell(i, scan(4, meta.scanLens(&meta.Samples[i])[4]+1))
		if _, err := parsed(re, spelled); !errors.Is(err, ErrCorrupt) {
			t.Errorf("sample %d claims another length: %v, want ErrCorrupt", i, err)
		}
	}
	// The sample count: a sample too many, or too few, for the index entry.
	extra := *meta
	extra.Samples = append(slices.Clone(meta.Samples), meta.Samples[0])
	fewer := *meta
	fewer.Samples = meta.Samples[:7]
	for name, m := range map[string]*RecordMeta{"a sample too many": &extra, "a sample too few": &fewer} {
		if _, err := parsed(re, respell(data, m, false, false)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
	// Wire-level damage inside a sample message: a varint cut short.
	for _, i := range []int{0, 1, 5} {
		if _, err := parsed(re, withSampleMessage(t, data, meta, i, []byte{sfID << 3, 0x80})); !errors.Is(err, ErrCorrupt) {
			t.Errorf("sample %d's message cut: %v, want ErrCorrupt", i, err)
		}
	}
	for name, spelled := range map[string][]byte{
		"the record as written": data,
		"respelled":             respell(data, meta, false, false),
		"rewalked":              withSampleMessage(t, data, meta, -1, nil),
	} {
		if _, err := parsed(re, spelled); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// withSampleMessage is the record with sample i's message replaced by raw,
// every other field of the section written back as the parse reads it.
func withSampleMessage(t *testing.T, data []byte, meta *RecordMeta, i int, raw []byte) []byte {
	t.Helper()
	enc := wire.NewEncoder(nil)
	n := 0
	for d := wire.NewDecoder(data[8:meta.BodyStart]); !d.Done(); {
		field, _, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if field == fieldNumGroups {
			v, err := d.Uint64()
			if err != nil {
				t.Fatal(err)
			}
			enc.Uint64(field, v)
			continue
		}
		msg, err := d.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if field == fieldSample {
			if n == i {
				msg = raw
			}
			n++
		}
		enc.Bytes(field, msg)
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

// FuzzParseRecordPrefix holds a sparse read to a whole-prefix read of the
// same bytes, against the same index entry: the record's own, when its
// parse accepts the bytes, and the seed record's. At every scan group the
// bytes hold, the parse of the body the entry plans for a selection (the
// fuzzer's mask) errs exactly when the parse of the prefix does, each as
// ErrCorrupt; where the record's own entry is accepted, AssembleSamples on
// that body delivers, past the fuzzer's resume count, byte for byte the
// streams SampleJPEGs splices from the prefix. The gathered bodies are
// parsed into one RecordMeta, as a reader's are. The seeds are
// FuzzParseRecordMeta's, its testdata included, under two selections.
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
		if own, err := ParseRecordMeta(data); err == nil {
			entries = append(entries, entryOf(own))
		}
		bm := new(RecordMeta)
		for k, re := range entries {
			m, prefixErr := parsed(re, data)
			if prefixErr != nil && (re != seed || !errors.Is(prefixErr, ErrCorrupt)) {
				t.Fatalf("entry %d: the prefix parse says %v", k, prefixErr)
			}
			sel := make([]bool, re.Samples)
			for i := range sel {
				sel[i] = mask>>(i%64)&1 == 1
			}
			for g := 1; g < len(re.Prefixes) && re.Prefixes[g] <= int64(len(data)); g++ {
				ranges, err := re.SampleRanges(g, sel)
				if err != nil {
					t.Fatal(err)
				}
				body, err := GatherRanges(nil, data, ranges)
				if err != nil {
					t.Fatal(err)
				}
				bodyErr := re.parse(bm, 0, body)
				if (prefixErr == nil) != (bodyErr == nil) || bodyErr != nil && !errors.Is(bodyErr, ErrCorrupt) {
					t.Fatalf("entry %d group %d: the prefix parse says %v, the gathered body's %v", k, g, prefixErr, bodyErr)
				}
				if prefixErr != nil || re == seed {
					// The seed's side index need not be the record's: its
					// body is held to the parse alone.
					continue
				}
				got := collect(func(deliver func(int, []byte)) error {
					return bm.AssembleSamples(body, g, sel, int(from), nil, deliver)
				})
				want := collect(func(deliver func(int, []byte)) error {
					return m.SampleJPEGs(data[:m.prefix[g]], g, sel, int(from), nil, deliver)
				})
				if got.err != nil || !got.equal(want) {
					t.Fatalf("group %d: the gathered read delivers %v, %v; the prefix read %v, %v", g, got.samples, got.err, want.samples, want.err)
				}
			}
		}
	})
}
