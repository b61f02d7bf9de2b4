package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/wire"
)

// BenchmarkParseRecordMeta parses the metadata section of a 32-sample
// record — what every read of every record pays before it can slice a
// sample out.
func BenchmarkParseRecordMeta(b *testing.B) {
	data, _ := writeTestRecord(b, buildSamples(b, 32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseRecordMeta(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseRecordMetaAllocations: the parse allocates five times — the
// metadata, its samples, headers and scripts, and one arena for every
// length and derived table — each sized by a first pass over the section,
// and keeps no table per sample but the scan lengths. A 32-sample record
// parses in at most 6 000 bytes; it took 12 016 bytes in 8 allocations when
// every sample had a row of slice offsets and one of group lengths of its
// own, and 371 allocations before that.
func TestParseRecordMetaAllocations(t *testing.T) {
	data, _ := writeTestRecord(t, buildSamples(t, 32))
	parse := func() {
		if _, err := ParseRecordMeta(data); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, parse); n > 5 {
		t.Fatalf("parsing a 32-sample record allocates %v times, want at most 5", n)
	}
	// Bytes per parse, averaged over runs as testing.AllocsPerRun averages
	// its counts: on one P, after a warm-up.
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	parse()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		parse()
	}
	runtime.ReadMemStats(&after)
	if n := (after.TotalAlloc - before.TotalAlloc) / runs; n > 6000 {
		t.Fatalf("parsing a 32-sample record allocates %d bytes, want at most 6000", n)
	}
}

// respell re-encodes a record's metadata section the ways the wire format
// allows and no writer here uses — the group count after the samples, each
// sample's packed lengths split over two fields — in front of the same body.
func respell(data []byte, m *RecordMeta, groupsLast, splitLens bool) []byte {
	packed := func(vs []int64) []uint64 {
		out := make([]uint64, len(vs))
		for k, v := range vs {
			out[k] = uint64(v)
		}
		return out
	}
	enc := wire.NewEncoder(nil)
	if !groupsLast {
		enc.Uint64(fieldNumGroups, uint64(m.NumGroups))
	}
	for _, s := range m.Samples {
		lens := packed(m.scanLens(&s))
		sub := wire.NewEncoder(nil)
		sub.Uint64(sfID, uint64(s.ID))
		sub.Int64(sfLabel, s.Label)
		if splitLens {
			sub.PackedUint64(sfScanLens, lens[:len(lens)/2])
			sub.Uint64(sfHeader, uint64(s.Header))
			sub.PackedUint64(sfScanLens, lens[len(lens)/2:])
		} else {
			sub.Uint64(sfHeader, uint64(s.Header))
			sub.PackedUint64(sfScanLens, lens)
		}
		enc.Bytes(fieldSample, sub.Encode())
	}
	for _, h := range m.Headers {
		sub := wire.NewEncoder(nil)
		sub.Uint64(hfScript, uint64(h.Script))
		sub.Bytes(hfJPEG, h.JPEG)
		enc.Bytes(fieldHeader, sub.Encode())
	}
	for _, sc := range m.scripts {
		enc.PackedUint64(fieldScript, packed(sc.framing))
	}
	if groupsLast {
		enc.Uint64(fieldNumGroups, uint64(m.NumGroups))
	}
	section := enc.Encode()
	out := append([]byte(nil), Magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(section)))
	out = append(out, section...)
	return append(out, data[m.BodyStart:]...)
}

// TestParseRecordMetaFieldOrder: the samples' lengths are sliced out of one
// shared array only after the whole section is read, so a group count that
// arrives last, samples before the headers and scripts they name, and
// lengths that arrive in two fields parse to the same record, and a sample
// that spells a length too many is refused.
func TestParseRecordMetaFieldOrder(t *testing.T) {
	data, want := writeTestRecord(t, buildSamples(t, 5))
	for _, tc := range []struct{ groupsLast, splitLens bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		spelled := respell(data, want, tc.groupsLast, tc.splitLens)
		got, err := ParseRecordMeta(spelled)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if got.NumGroups != want.NumGroups || got.BodyStart != int64(len(spelled)-len(data))+want.BodyStart ||
			!reflect.DeepEqual(got.Samples, want.Samples) || !reflect.DeepEqual(got.Headers, want.Headers) {
			t.Fatalf("%+v: parsed record differs from the one written", tc)
		}
		for i := range want.Samples {
			a, err := got.SampleJPEG(spelled, i, got.NumGroups)
			if err != nil {
				t.Fatal(err)
			}
			b, err := want.SampleJPEG(data, i, want.NumGroups)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%+v: sample %d reassembles differently", tc, i)
			}
		}
	}
	extra := *want
	extra.Samples = append([]SampleMeta(nil), want.Samples...)
	s := &extra.Samples[2]
	extra.lens = append(append(slices.Clone(want.lens), want.scanLens(s)...), 1)
	s.scanAt, s.scanN = uint32(len(want.lens)), s.scanN+1
	if _, err := ParseRecordMeta(respell(data, &extra, true, true)); err == nil {
		t.Fatal("a sample with one scan length too many was accepted")
	}
}

// BenchmarkSampleJPEG reassembles every sample of a 32-sample record at two,
// five and all scan groups — what a read pays per image before it decodes —
// one stream at a time (SampleJPEG, a buffer each) and as a record read
// does (record/…: SampleJPEGs, one buffer for the record). An op is one
// record, so B/op and allocs/op are per record.
func BenchmarkSampleJPEG(b *testing.B) {
	data, meta := writeTestRecord(b, buildSamples(b, 32))
	for _, g := range []int{2, 5, meta.NumGroups} {
		b.Run(fmt.Sprintf("groups=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for i := range meta.Samples {
					if _, err := meta.SampleJPEG(data, i, g); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("record/groups=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if err := meta.SampleJPEGs(data, g, nil, 0, nil, func(int, []byte) {}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
