package core

import (
	"bytes"
	"errors"
	"image"
	"math/rand"
	"testing"

	"repro/internal/jpegc"
)

// mixedRecord writes a record of colour samples, with every third one
// replaced by a grayscale image when gray is set (six scans instead of ten:
// empty slices in the later groups), and returns its bytes with the index
// entry a dataset would keep for it.
func mixedRecord(t testing.TB, n int, gray bool) ([]byte, *RecordMeta, *RecordInfo) {
	t.Helper()
	samples := buildSamples(t, n)
	if gray {
		for i := 0; i < n; i += 3 {
			img := image.NewGray(image.Rect(0, 0, 40, 40))
			for p := range img.Pix {
				img.Pix[p] = uint8(p * (7 + i) % 256)
			}
			data, err := jpegc.Encode(img, &jpegc.Options{Quality: 80})
			if err != nil {
				t.Fatal(err)
			}
			samples[i].JPEG = data
		}
	}
	data, meta := writeTestRecord(t, samples)
	re := &RecordInfo{Name: "record", Samples: n}
	for g := 0; g <= meta.NumGroups; g++ {
		need, err := meta.PrefixLen(g)
		if err != nil {
			t.Fatal(err)
		}
		re.Prefixes = append(re.Prefixes, need)
	}
	for _, s := range meta.Samples {
		re.SampleIDs = append(re.SampleIDs, s.ID)
		re.SampleLabels = append(re.SampleLabels, s.Label)
		re.SampleGroupLens = append(re.SampleGroupLens, s.GroupLens...)
	}
	return data, meta, re
}

// selections draws the shapes a predicate leaves behind: nothing, one
// sample, everything, a run, every other sample, and seeded random masks.
func selections(rng *rand.Rand, n int) [][]bool {
	sels := make([][]bool, 5)
	for k := range sels {
		sels[k] = make([]bool, n)
	}
	sels[1][rng.Intn(n)] = true
	from := rng.Intn(n)
	for i := range n {
		sels[2][i] = true
		sels[3][i] = i >= from && i < from+1+n/3
		sels[4][i] = i%2 == 0
	}
	for range 6 {
		sel := make([]bool, n)
		for i := range sel {
			sel[i] = rng.Intn(3) == 0
		}
		sels = append(sels, sel)
	}
	return sels
}

// assemble parses a gathered body and collects what AssembleSamples
// delivers past the first from selected samples: a stream per sample, nil
// for each one not delivered.
func assemble(body []byte, g int, sel []bool, from int) (*RecordMeta, [][]byte, error) {
	m, err := ParseRecordMeta(body)
	if err != nil {
		return nil, nil, err
	}
	streams := make([][]byte, len(m.Samples))
	if err := m.AssembleSamples(body, g, sel, from, nil, func(i int, s []byte) { streams[i] = s }); err != nil {
		return nil, nil, err
	}
	return m, streams, nil
}

// TestAssembleSamplesMatchesScatter holds the direct assembly of a sparse
// read to the path it replaced: scatter the gathered ranges back into a
// prefix-sized buffer, parse it, slice every selected sample out with
// SampleJPEG. Byte for byte, for every scan group, on colour-only and mixed
// colour/grayscale records, whole and resumed past two selected samples.
// The ranges total what SampleBytes says, which a pushdown client holds the
// server's answer to.
func TestAssembleSamplesMatchesScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, gray := range []bool{false, true} {
		data, meta, re := mixedRecord(t, 9, gray)
		for g := 1; g <= meta.NumGroups; g++ {
			for k, sel := range selections(rng, len(meta.Samples)) {
				from := 2 * (k % 2)
				ranges, err := re.SampleRanges(g, sel)
				if err != nil {
					t.Fatal(err)
				}
				if n, err := re.SampleBytes(g, sel); err != nil || n != RangesTotal(ranges) {
					t.Fatalf("gray=%v group %d selection %v: SampleBytes %d, %v; the ranges total %d", gray, g, sel, n, err, RangesTotal(ranges))
				}
				body, err := GatherRanges(nil, data, ranges)
				if err != nil {
					t.Fatal(err)
				}
				sparse, err := ScatterRanges(body, ranges, re.Prefixes[g])
				if err != nil {
					t.Fatal(err)
				}
				ref, err := ParseRecordMeta(sparse)
				if err != nil {
					t.Fatal(err)
				}
				m, streams, err := assemble(body, g, sel, from)
				if err != nil {
					t.Fatalf("gray=%v group %d selection %v: %v", gray, g, sel, err)
				}
				if len(m.Samples) != len(sel) {
					t.Fatalf("%d samples for a selection of %d", len(m.Samples), len(sel))
				}
				skip := from
				for i, on := range sel {
					if !on || skip > 0 {
						if on {
							skip--
						}
						if streams[i] != nil {
							t.Fatalf("gray=%v group %d from %d: sample %d was not delivered and has a stream", gray, g, from, i)
						}
						continue
					}
					want, err := ref.SampleJPEG(sparse, i, g)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(streams[i], want) {
						t.Fatalf("gray=%v group %d selection %v: sample %d differs from the scattered reference", gray, g, sel, i)
					}
					if cap(streams[i]) != len(want) {
						t.Fatalf("sample %d: stream of %d bytes in an allocation of %d", i, len(want), cap(streams[i]))
					}
					if s := m.Samples[i]; s.ID != ref.Samples[i].ID || s.Label != ref.Samples[i].Label || s.Header != ref.Samples[i].Header {
						t.Fatalf("sample %d: identity differs from the reference", i)
					}
				}
			}
		}
	}
}

// TestAssembleSamplesRefuses: a body that is not the selection's length, a
// selection that is not the record's, and a group the record does not store
// are each reported as corruption, never sliced.
func TestAssembleSamplesRefuses(t *testing.T) {
	data, meta, re := mixedRecord(t, 6, true)
	sel := []bool{true, false, false, true, true, false}
	g := meta.NumGroups / 2
	ranges, err := re.SampleRanges(g, sel)
	if err != nil {
		t.Fatal(err)
	}
	body, err := GatherRanges(nil, data, ranges)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := assemble(body, g, sel, 0); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		body []byte
		g    int
		sel  []bool
	}{
		"a byte short":        {body[:len(body)-1], g, sel},
		"a byte long":         {append(bytes.Clone(body), 0), g, sel},
		"cut in the metadata": {body[:meta.BodyStart/2], g, sel},
		"short selection":     {body, g, sel[:len(sel)-1]},
		"long selection":      {body, g, append([]bool{false}, sel...)},
		"group zero":          {body, 0, sel},
		"negative group":      {body, -1, sel},
		"group past the last": {body, meta.NumGroups + 1, sel},
		"another selection":   {body, g, []bool{true, true, true, true, true, true}},
		"a lower group":       {body, g - 1, sel},
	} {
		m, streams, err := assemble(tc.body, tc.g, tc.sel, 0)
		if !errors.Is(err, ErrCorrupt) || m != nil || streams != nil {
			t.Errorf("%s: got %v, want an ErrCorrupt refusal", name, err)
		}
	}
}
